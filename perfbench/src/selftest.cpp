// Tests of the benchmark's own C++ helpers: the output checks
// (fingerprints and bit-for-bit comparison) and the span recorder.
// Exits non-zero on the first failed expectation.
#include <cmath>
#include <iostream>
#include <vector>

#include "check.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

riskan::core::EngineResult result(std::vector<double> losses) {
  riskan::core::EngineResult r;
  r.portfolio_ylt = riskan::data::YearLossTable(losses);
  r.portfolio_occurrence_ylt = riskan::data::YearLossTable(losses);
  r.reinstatement_premium = riskan::data::YearLossTable(losses.size());
  r.contract_ylts.emplace_back(losses);
  return r;
}

void fingerprints() {
  const std::vector<double> a = {1.0, 2.5, 0.0, 1e9};
  std::vector<double> b = a;
  expect(fingerprint(a) == fingerprint(b), "equal columns share a fingerprint");
  expect(same_bits(a, b), "equal columns compare equal");

  b[3] = std::nextafter(b[3], 0.0);
  expect(fingerprint(a) != fingerprint(b), "one-ulp change moves the fingerprint");
  expect(!same_bits(a, b), "one-ulp change is a mismatch");

  b = a;
  b[2] = -0.0;
  expect(fingerprint(a) != fingerprint(b), "+0.0 and -0.0 differ in bits");
  expect(!same_bits(a, b), "+0.0 and -0.0 are a mismatch");

  const std::vector<double> swapped = {2.5, 1.0, 0.0, 1e9};
  expect(fingerprint(a) != fingerprint(swapped), "order matters");
  const std::vector<double> shorter = {1.0, 2.5, 0.0};
  expect(!same_bits(a, shorter), "length matters");
  expect(fingerprint(std::vector<double>{}) != fingerprint(std::vector<double>{0.0}),
         "an extra zero moves the fingerprint");
}

void engine_results() {
  const auto a = result({3.0, 0.0, 7.25});
  auto b = result({3.0, 0.0, 7.25});
  expect(same_bits(a, b), "identical results compare equal");
  expect(fingerprint(a) == fingerprint(b), "identical results share a fingerprint");

  corrupt(b);
  expect(!same_bits(a, b), "a corrupted reference is a mismatch");
  expect(fingerprint(a) != fingerprint(b), "a corrupted reference moves the fingerprint");

  auto c = result({3.0, 0.0, 7.25});
  c.contract_ylts[0][1] = 1.0;
  expect(!same_bits(a, c), "contract YLTs are compared too");
  auto d = result({3.0, 0.0, 7.25});
  d.contract_ylts.clear();
  expect(!same_bits(a, d), "a missing contract YLT is a mismatch");
}

void spans() {
  Tracer off(false);
  {
    Tracer::Scope s(off, "ignored");
  }
  expect(off.spans().empty(), "a disabled tracer records nothing");

  Tracer on(true);
  on.set_op(7);
  {
    Tracer::Scope op(on, "op");
    {
      Tracer::Scope a(on, "a");
      Tracer::Scope b(on, "b");
    }
    Tracer::Scope c(on, "c");
  }
  on.set_op(-1);
  {
    Tracer::Scope probe(on, "probe");
  }
  const auto& s = on.spans();
  expect(s.size() == 5, "every span is recorded");
  if (s.size() != 5) {
    return;
  }
  expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 1 && s[3].parent == 0,
         "parents follow nesting");
  expect(s[4].parent == -1 && s[4].op == -1, "spans outside an op carry op -1");
  expect(s[0].op == 7 && s[3].op == 7, "spans carry the op id");
  bool ordered = true;
  for (const auto& span : s) {
    ordered = ordered && span.end_ns >= span.start_ns;
  }
  expect(ordered, "every span ends after it starts");
  expect(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns,
         "children lie inside their parent");
}

}  // namespace

int main() {
  fingerprints();
  engine_results();
  spans();
  if (failures == 0) {
    std::cout << "perfbench_selftest: all checks passed\n";
  }
  return failures == 0 ? 0 : 1;
}
