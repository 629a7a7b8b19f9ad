// TrialSource — the data plane of stage-2 aggregate analysis.
//
// The paper frames stage 2 as a data-management problem: in-memory
// analytics carry "large but not enormous datasets"; beyond that the YELT
// lives in a chunked file space and must be *streamed*. The compute side of
// that split is the exec layer (core/exec.hpp: one ExecutionPlan per trial
// block and one function that runs it); this file is its data-plane twin.
// A TrialSource yields the
// YELT as an ordered sequence of trial blocks, and every engine entry point
// consumes blocks instead of assuming one resident table — so in-memory,
// out-of-core and distributed runs are the same code path with different
// sources, and their outputs are bit-identical (each block carries its
// trial offset, which keys the counter-based sampling streams).
//
// Three sources:
//   InMemorySource    — wraps a caller-owned YearEventLossTable as one
//                       zero-copy block: the classic in-memory run.
//   ChunkedFileSource — streams trial blocks from a ChunkedFile, with a
//                       background double-buffered prefetch pipeline
//                       (dedicated single-thread pool + SPSC ring): block
//                       c+1 is read and decoded while block c computes, so
//                       decode/I-O cost hides behind the trial kernel
//                       instead of serialising against it. Memory
//                       high-water = ring + 2 decoded blocks (see
//                       ChunkedFileSource::kPrefetchRing).
//   EncodedBlockSource— adapter over one encoded YELT blob (one chunk of
//                       a chunked file): a dist worker's decode path,
//                       expressed as a single-block source.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "data/chunked_file.hpp"
#include "data/yelt.hpp"
#include "parallel/spsc_queue.hpp"
#include "parallel/thread_pool.hpp"

namespace riskan::data {

/// One decoded trial block handed to the execution layer.
struct TrialBlock {
  std::shared_ptr<const YearEventLossTable> yelt;
  /// Trials before this block within the source (block-local trial t is
  /// source-global trial_offset + t; the engine adds its own
  /// EngineConfig::trial_base on top).
  TrialId trial_offset = 0;
  /// Block ordinal within the source.
  std::size_t index = 0;
  /// Encoded bytes read+decoded to produce this block (0 = zero-copy).
  std::size_t encoded_bytes = 0;
};

/// Ordered sequence of trial blocks covering [0, trials()). Blocks are
/// yielded exactly once per pass, in trial order; reset() rewinds for
/// another pass. Sources are single-consumer.
class TrialSource {
 public:
  virtual ~TrialSource() = default;

  /// Total trials across all blocks, known before any block is decoded
  /// (output sizing).
  virtual TrialId trials() const = 0;
  virtual std::size_t block_count() const = 0;

  /// Yields the next block; false at end of the pass.
  virtual bool next(TrialBlock& block) = 0;

  /// Rewinds to the first block (restarting any pipeline).
  virtual void reset() = 0;

  /// True when blocks are transient decodes that die with the pass — the
  /// engine, scenario sweeps included, then gathers by lookup and builds no
  /// compact resolution, so no dead key ever parks in a ResolverCache.
  virtual bool ephemeral_blocks() const noexcept = 0;
};

/// The in-memory run: one zero-copy block over a caller-owned YELT (which
/// must outlive the source and any block taken from it).
class InMemorySource final : public TrialSource {
 public:
  explicit InMemorySource(const YearEventLossTable& yelt) : yelt_(&yelt) {}

  TrialId trials() const override { return yelt_->trials(); }
  std::size_t block_count() const override { return 1; }
  bool next(TrialBlock& block) override;
  void reset() override { served_ = false; }
  bool ephemeral_blocks() const noexcept override { return false; }

 private:
  const YearEventLossTable* yelt_;
  bool served_ = false;
};

/// Adapter over one encoded YELT blob — how a dist worker (or the
/// coordinator's in-process fallback) lowers its block through the same
/// data plane as every other entry point. The blob is decoded at
/// construction; the span need not outlive the ctor. A short or corrupted
/// payload throws the typed riskan::CorruptChunkError (util/io_error.hpp) —
/// garbage bytes can never silently decode into trials.
class EncodedBlockSource final : public TrialSource {
 public:
  explicit EncodedBlockSource(std::span<const std::byte> encoded);

  TrialId trials() const override { return yelt_->trials(); }
  std::size_t block_count() const override { return 1; }
  bool next(TrialBlock& block) override;
  void reset() override { served_ = false; }
  bool ephemeral_blocks() const noexcept override { return true; }

 private:
  std::shared_ptr<const YearEventLossTable> yelt_;
  std::size_t encoded_bytes_ = 0;
  bool served_ = false;
};

/// Re-blocks an inner source onto a fixed trial grid: blocks of exactly
/// `block_trials` trials (short last block), optionally capped at
/// `trial_cap` total trials. This is the adaptive controller's decision
/// grid — core::run_books walks it when EngineConfig::adaptive is enabled
/// and checks convergence after each grid block — and the grid is a
/// pure function of (block_trials, trials), NOT of how the inner source
/// happened to chunk its data, so the stopping trial count is identical
/// whether the YELT arrives as one resident table or as file chunks of any
/// size. Inner blocks that already land on the grid pass through
/// zero-copy; otherwise trials are re-sliced through a Builder.
class ReblockedSource final : public TrialSource {
 public:
  /// `inner` must outlive this source. trial_cap = 0 means no cap.
  ReblockedSource(TrialSource& inner, TrialId block_trials, TrialId trial_cap = 0);

  TrialId trials() const override { return trials_; }
  std::size_t block_count() const override;
  bool next(TrialBlock& block) override;
  void reset() override;
  bool ephemeral_blocks() const noexcept override { return true; }

 private:
  struct Pending {
    std::shared_ptr<const YearEventLossTable> yelt;
    TrialId consumed = 0;       ///< trials of this block already re-sliced
    std::size_t encoded_bytes = 0;
  };

  TrialSource* inner_;
  TrialId block_trials_;
  TrialId trials_ = 0;
  TrialId delivered_ = 0;
  std::size_t index_ = 0;
  std::vector<Pending> pending_;
  TrialId pending_trials_ = 0;
};

/// Telemetry of one streamed pass (reset() zeroes it with the pass).
struct ChunkedFileSourceStats {
  std::uint64_t bytes_read = 0;        ///< encoded bytes delivered
  std::size_t blocks_delivered = 0;
  std::size_t peak_block_bytes = 0;    ///< largest single encoded block
  /// Read+decode busy time (on the prefetch thread, or inline when
  /// prefetch is off).
  double produce_seconds = 0.0;
  /// Consumer stalls waiting on the pipeline: ~0 when decode fully hides
  /// behind compute, ~produce_seconds when nothing overlaps.
  double wait_seconds = 0.0;
};

/// Trials of each chunk of a chunked YELT file (core::save_yelt_chunked's
/// layout: one encoded YELT per chunk), read from the fixed-size YELT
/// headers without decoding or CRC-checking a chunk. A header count the
/// chunk's bytes cannot hold throws CorruptChunkError. ChunkedFileSource
/// and the dist runtime's file entry size their runs with it.
std::vector<TrialId> chunk_trials(ChunkedFileReader& reader);

/// Streams trial blocks from a chunked YELT file (core::save_yelt_chunked's
/// layout: one encoded YELT per chunk). With prefetch on (default), a
/// dedicated single-thread pool reads and decodes ahead through an SPSC
/// ring of kPrefetchRing blocks, so a pass keeps at most kPrefetchRing + 2
/// decoded blocks resident: the ring's, the one a producer waiting on a
/// full ring holds, and the one the engine is running. The compute backends
/// never see the pipeline: the prefetch worker is the source's own, not the
/// engine pool, so Sequential consumers (including pool-worker callers)
/// stay deadlock-free.
struct ChunkedFileSourceOptions {
  /// Read+decode block c+1 on a background thread while block c computes.
  /// Off = synchronous per-block decode (the E12 overlap baseline).
  bool prefetch = true;
};

class ChunkedFileSource final : public TrialSource {
 public:
  using Options = ChunkedFileSourceOptions;

  /// Decoded blocks the prefetch ring holds (a power of two, as SpscQueue
  /// rounds up to one).
  static constexpr std::size_t kPrefetchRing = 2;

  explicit ChunkedFileSource(const std::string& path, Options options = {});
  ~ChunkedFileSource() override;

  ChunkedFileSource(const ChunkedFileSource&) = delete;
  ChunkedFileSource& operator=(const ChunkedFileSource&) = delete;

  TrialId trials() const override { return trials_; }
  std::size_t block_count() const override { return chunk_trials_.size(); }
  bool next(TrialBlock& block) override;
  void reset() override;
  bool ephemeral_blocks() const noexcept override { return true; }

  /// Trials of block i (from the chunk headers; no decode).
  TrialId block_trials(std::size_t i) const { return chunk_trials_[i]; }

  const ChunkedFileSourceStats& stats() const noexcept { return stats_; }

 private:
  struct Produced {
    std::shared_ptr<const YearEventLossTable> yelt;
    std::size_t bytes = 0;
    double produce_seconds = 0.0;
    std::exception_ptr error;
  };

  Produced produce(std::size_t index);
  void start_producer();
  void stop_producer();

  ChunkedFileReader reader_;
  Options options_;
  std::vector<TrialId> chunk_trials_;
  std::vector<TrialId> chunk_offsets_;
  TrialId trials_ = 0;
  std::size_t next_block_ = 0;
  ChunkedFileSourceStats stats_;

  // Prefetch pipeline (absent when options_.prefetch is off). Handoff is
  // the SPSC ring; both sides block on the cv when the ring is full/empty
  // (short timed waits, so a missed notify costs milliseconds, never a
  // hang) instead of burning a hardware thread spinning.
  std::unique_ptr<SpscQueue<Produced>> queue_;
  std::unique_ptr<ThreadPool> prefetch_pool_;
  std::mutex pipe_mutex_;
  std::condition_variable pipe_cv_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> producer_done_{true};
};

}  // namespace riskan::data
