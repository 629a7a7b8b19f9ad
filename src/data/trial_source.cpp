#include "data/trial_source.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "data/serialize.hpp"
#include "obs/obs.hpp"
#include "util/io_error.hpp"
#include "util/require.hpp"

namespace riskan::data {

namespace {

/// Prefetch-pipeline telemetry: a consumer pop that found the ring ready
/// is an overlap win (the read+decode cost was fully hidden behind
/// compute); one that had to park is a stall, with the stall time in a
/// histogram. The wins/stalls ratio is the headline "is the pipeline
/// keeping up" signal for trace triage.
struct DataObs {
  obs::Counter overlap_wins =
      obs::MetricsRegistry::global().counter("data.prefetch_overlap_wins");
  obs::Counter stalls = obs::MetricsRegistry::global().counter("data.prefetch_stalls");
  obs::Histogram stall_seconds =
      obs::MetricsRegistry::global().histogram("data.prefetch_stall_seconds");
  obs::Counter bytes_read = obs::MetricsRegistry::global().counter("data.bytes_read");
  obs::Counter blocks = obs::MetricsRegistry::global().counter("data.blocks_delivered");
  obs::Histogram produce_seconds =
      obs::MetricsRegistry::global().histogram("data.produce_seconds");
};

const DataObs& data_obs() {
  static const DataObs metrics;
  return metrics;
}

}  // namespace

bool InMemorySource::next(TrialBlock& block) {
  if (served_) {
    return false;
  }
  served_ = true;
  // Aliasing shared_ptr with no owner: zero-copy, lifetime stays the
  // caller's (the source's lifetime contract).
  block.yelt = std::shared_ptr<const YearEventLossTable>(
      std::shared_ptr<const YearEventLossTable>{}, yelt_);
  block.trial_offset = 0;
  block.index = 0;
  block.encoded_bytes = 0;
  return true;
}

EncodedBlockSource::EncodedBlockSource(std::span<const std::byte> encoded)
    : encoded_bytes_(encoded.size()) {
  // A blob that fails structural decode is damaged *data*, not a broken
  // API contract: surface it as the typed CorruptChunkError so the
  // distribution layer can treat it as retryable (re-read the replica,
  // re-run the block) instead of aborting like a programmer bug — and so
  // a short or bit-flipped payload can never be silently decoded into
  // garbage trials.
  try {
    ByteReader reader(encoded);
    yelt_ = std::make_shared<const YearEventLossTable>(decode_yelt(reader));
  } catch (const IoError&) {
    throw;
  } catch (const std::exception& e) {
    throw CorruptChunkError(std::string("encoded trial block failed to decode: ") +
                            e.what());
  }
}

bool EncodedBlockSource::next(TrialBlock& block) {
  if (served_) {
    return false;
  }
  served_ = true;
  block.yelt = yelt_;
  block.trial_offset = 0;
  block.index = 0;
  block.encoded_bytes = encoded_bytes_;
  return true;
}

ReblockedSource::ReblockedSource(TrialSource& inner, TrialId block_trials,
                                 TrialId trial_cap)
    : inner_(&inner), block_trials_(block_trials) {
  RISKAN_REQUIRE(block_trials > 0, "reblocked grid needs positive block_trials");
  trials_ = inner.trials();
  if (trial_cap > 0) {
    trials_ = std::min(trials_, trial_cap);
  }
}

std::size_t ReblockedSource::block_count() const {
  return (static_cast<std::size_t>(trials_) + block_trials_ - 1) / block_trials_;
}

bool ReblockedSource::next(TrialBlock& block) {
  if (delivered_ >= trials_) {
    return false;
  }
  const TrialId want = std::min<TrialId>(block_trials_, trials_ - delivered_);

  // Pull inner blocks until the grid block is covered. The inner source
  // declares at least trials_ trials, so exhaustion here is its bug.
  while (pending_trials_ < want) {
    TrialBlock inner_block;
    RISKAN_ENSURE(inner_->next(inner_block),
                  "inner source ran out of trials before its declared count");
    Pending p;
    p.yelt = inner_block.yelt;
    p.encoded_bytes = inner_block.encoded_bytes;
    pending_trials_ += p.yelt->trials();
    pending_.push_back(std::move(p));
  }

  std::size_t encoded = 0;
  if (pending_.size() == 1 && pending_.front().consumed == 0 &&
      pending_.front().yelt->trials() == want) {
    // The inner block already lands on the grid: pass it through zero-copy.
    block.yelt = pending_.front().yelt;
    encoded = pending_.front().encoded_bytes;
    pending_.clear();
  } else {
    // Re-slice `want` trials off the pending queue's front.
    YearEventLossTable::Builder builder(want);
    TrialId taken = 0;
    while (taken < want) {
      Pending& front = pending_.front();
      const TrialId avail = front.yelt->trials() - front.consumed;
      const TrialId take = std::min<TrialId>(avail, want - taken);
      for (TrialId t = 0; t < take; ++t) {
        const TrialId src = front.consumed + t;
        builder.begin_trial();
        const auto events = front.yelt->trial_events(src);
        const auto days = front.yelt->trial_days(src);
        for (std::size_t i = 0; i < events.size(); ++i) {
          builder.add(events[i], days[i]);
        }
      }
      front.consumed += take;
      taken += take;
      // Attribute the inner block's decode cost to the grid block that
      // finishes it (telemetry only, so first-touch vs last-touch is a
      // wash; last-touch avoids double counting).
      if (front.consumed == front.yelt->trials()) {
        encoded += front.encoded_bytes;
        pending_.erase(pending_.begin());
      }
    }
    block.yelt = std::make_shared<const YearEventLossTable>(builder.finish());
  }
  pending_trials_ -= want;
  block.trial_offset = delivered_;
  block.index = index_++;
  block.encoded_bytes = encoded;
  delivered_ += want;
  return true;
}

void ReblockedSource::reset() {
  inner_->reset();
  pending_.clear();
  pending_trials_ = 0;
  delivered_ = 0;
  index_ = 0;
}

std::vector<TrialId> chunk_trials(ChunkedFileReader& reader) {
  std::vector<TrialId> trials;
  trials.reserve(reader.chunk_count());
  for (std::size_t c = 0; c < reader.chunk_count(); ++c) {
    const auto header = reader.read_chunk_prefix(c, kYeltHeaderBytes);
    const TrialId count = peek_yelt_trials(header);
    // The prefix peek is outside the CRC (which covers whole chunks), so
    // bound the count by the chunk's actual bytes before sizing anything
    // from it: the encoded layout carries trials+1 u64 offsets after the
    // header, so a corrupted count cannot pass this and OOM the run — it
    // fails here, or the CRC catches it at read time.
    const std::size_t chunk_bytes = reader.chunk_size(c);
    if (!(chunk_bytes >= kYeltHeaderBytes + sizeof(std::uint64_t) &&
          static_cast<std::uint64_t>(count) <=
              (chunk_bytes - kYeltHeaderBytes) / sizeof(std::uint64_t) - 1)) {
      throw CorruptChunkError(
          "chunk header trial count exceeds the chunk's size (corrupt chunk " +
          std::to_string(c) + ")");
    }
    trials.push_back(count);
  }
  return trials;
}

ChunkedFileSource::ChunkedFileSource(const std::string& path, Options options)
    : reader_(path), options_(options), chunk_trials_(chunk_trials(reader_)) {
  chunk_offsets_.reserve(chunk_trials_.size());
  for (const TrialId count : chunk_trials_) {
    chunk_offsets_.push_back(trials_);
    trials_ += count;
  }

  if (options_.prefetch) {
    queue_ = std::make_unique<SpscQueue<Produced>>(kPrefetchRing);
    prefetch_pool_ = std::make_unique<ThreadPool>(1);
    start_producer();
  }
}

ChunkedFileSource::~ChunkedFileSource() {
  if (options_.prefetch) {
    stop_producer();
  }
}

ChunkedFileSource::Produced ChunkedFileSource::produce(std::size_t index) {
  Produced item;
  try {
    obs::Timer timer("data.produce");
    const auto bytes = reader_.read_chunk(index);  // CRC-verified
    ByteReader reader(bytes);
    item.yelt = std::make_shared<const YearEventLossTable>(decode_yelt(reader));
    item.bytes = bytes.size();
    item.produce_seconds = timer.stop();
    data_obs().produce_seconds.observe(item.produce_seconds);
  } catch (...) {
    item.error = std::current_exception();
  }
  return item;
}

void ChunkedFileSource::start_producer() {
  stop_.store(false, std::memory_order_relaxed);
  producer_done_.store(false, std::memory_order_relaxed);
  prefetch_pool_->submit([this] {
    obs::set_trace_thread_name("prefetch");
    const std::size_t count = reader_.chunk_count();
    for (std::size_t c = 0; c < count && !stop_.load(std::memory_order_relaxed); ++c) {
      Produced item = produce(c);
      const bool had_error = item.error != nullptr;
      // try_push consumes its argument, so retries push a fresh copy (the
      // payload is a shared_ptr — copies are cheap). A full ring parks the
      // thread on the cv instead of spinning through the consumer's
      // compute.
      while (!queue_->try_push(item)) {
        std::unique_lock<std::mutex> lock(pipe_mutex_);
        if (stop_.load(std::memory_order_relaxed)) {
          producer_done_.store(true, std::memory_order_release);
          pipe_cv_.notify_all();
          return;
        }
        pipe_cv_.wait_for(lock, std::chrono::milliseconds(2));
      }
      pipe_cv_.notify_all();
      if (had_error) {
        break;  // the stream is dead past a read/decode failure
      }
    }
    producer_done_.store(true, std::memory_order_release);
    pipe_cv_.notify_all();
  });
}

void ChunkedFileSource::stop_producer() {
  stop_.store(true, std::memory_order_relaxed);
  pipe_cv_.notify_all();
  // Keep draining so a producer blocked on a full ring can make progress
  // and observe stop_.
  while (!producer_done_.load(std::memory_order_acquire)) {
    while (queue_->try_pop()) {
    }
    pipe_cv_.notify_all();
    std::unique_lock<std::mutex> lock(pipe_mutex_);
    pipe_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
  while (queue_->try_pop()) {
  }
  // producer_done_ is set before the task's last notify_all, so join the
  // task itself: the members it touches (pipe_cv_ among them) may be
  // destroyed as soon as this returns.
  prefetch_pool_->wait_idle();
}

bool ChunkedFileSource::next(TrialBlock& block) {
  if (next_block_ >= chunk_trials_.size()) {
    return false;
  }
  Produced item;
  if (!options_.prefetch) {
    item = produce(next_block_);
  } else {
    // First pop attempt classifies the block: ready now = the pipeline hid
    // the whole read+decode behind compute (overlap win); empty = the
    // consumer stalls until the producer catches up.
    if (auto popped = queue_->try_pop()) {
      item = std::move(*popped);
      data_obs().overlap_wins.add();
    } else {
      obs::Timer wait("data.prefetch_stall");
      for (;;) {
        if (auto retry = queue_->try_pop()) {
          item = std::move(*retry);
          break;
        }
        // Ring empty: park until the producer pushes (timed, so a missed
        // notify costs a millisecond, never a hang).
        std::unique_lock<std::mutex> lock(pipe_mutex_);
        pipe_cv_.wait_for(lock, std::chrono::milliseconds(1));
      }
      const double stalled = wait.stop();
      stats_.wait_seconds += stalled;
      data_obs().stalls.add();
      data_obs().stall_seconds.observe(stalled);
    }
    pipe_cv_.notify_all();  // wake a producer parked on a full ring
  }
  if (item.error != nullptr) {
    next_block_ = chunk_trials_.size();  // poison the pass
    std::rethrow_exception(item.error);
  }

  stats_.bytes_read += item.bytes;
  stats_.peak_block_bytes = std::max(stats_.peak_block_bytes, item.bytes);
  stats_.produce_seconds += item.produce_seconds;
  ++stats_.blocks_delivered;
  data_obs().bytes_read.add(static_cast<double>(item.bytes));
  data_obs().blocks.add();

  block.yelt = std::move(item.yelt);
  block.trial_offset = chunk_offsets_[next_block_];
  block.index = next_block_;
  block.encoded_bytes = item.bytes;
  ++next_block_;
  return true;
}

void ChunkedFileSource::reset() {
  if (options_.prefetch) {
    stop_producer();
  }
  next_block_ = 0;
  stats_ = ChunkedFileSourceStats{};
  if (options_.prefetch) {
    start_producer();
  }
}

}  // namespace riskan::data
