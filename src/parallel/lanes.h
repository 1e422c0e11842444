// Slab-parallel codec lanes for the streamed pipelines.
//
// A streamed pipeline (core/pipeline.cpp) moves a field through one serial
// stage — the container writer, or the chunk fetcher — and one codec stage
// — compress, or decode. The codec stage is independent across slabs
// (every slab is a self-contained blob coded at one whole-field absolute
// bound), so it runs on up to W *lanes*: executor tasks dispatched in slab
// order, at most W of them at once per pipeline call. The serial stage
// still sees every slab strictly in slab order, so containers and
// reassembled fields are byte-identical to a one-lane run.
//
// Two pieces live here:
//   - CoreBudget: the process-wide cap on lane codec calls running at
//     once, shared by every pipeline in the process. Overlapping pipelines
//     (three clients on a four-core host) queue for slots instead of
//     oversubscribing the cores, so per-slab host seconds stay honest.
//   - run_ordered_lanes: the one lane loop all streamed pipelines use.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>

namespace eblcio {

class CoreBudget {
 public:
  // The process-wide budget: one slot per core the global executor keeps
  // busy (Executor::concurrency(), capped at the host's hardware threads,
  // so a one-core host has one slot even though its pool has two workers).
  static CoreBudget& global();

  explicit CoreBudget(int slots);
  CoreBudget(const CoreBudget&) = delete;
  CoreBudget& operator=(const CoreBudget&) = delete;

  int slots() const { return slots_; }

  // Holds one slot for its lifetime. Construction waits, first come first
  // served, while every slot is taken.
  //
  // A lane waiting here holds its executor worker, and that cannot
  // deadlock. Every slot holder is a codec call that is already running.
  // Its only wait is a parallel_for, which runs its own group's queued
  // tasks itself when no worker is free, so every holder finishes and
  // frees its slot without another worker's help. Slots never exceed
  // workers, and lanes run only on workers (run_ordered_lanes refuses to
  // start on one, and never runs a lane on its caller), so while any lane
  // waits, the slots are held by lanes still running on other workers.
  class Slot {
   public:
    explicit Slot(CoreBudget& budget = CoreBudget::global());
    ~Slot();
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;

   private:
    CoreBudget* budget_;
  };

  int held() const;
  // Most slots held at once since construction or reset_peak().
  int peak() const;
  void reset_peak();

 private:
  void acquire();
  void release();

  const int slots_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  int held_ = 0;
  int peak_ = 0;
  std::uint64_t next_ticket_ = 0;  // FIFO order of waiters
  std::uint64_t serving_ = 0;
};

// Lanes one pipeline call codes with: the global budget's slots divided
// among the `threads` cores each codec call fans out to (at least 1).
int codec_lanes(int threads);

// The stages of one ordered-lanes loop over slabs 0..n-1. `lane` is
// required; at most one of `source` and `sink` may be set.
struct LaneStages {
  // Calling thread, slab order, before slab i's lane (the read side's
  // chunk fetch).
  std::function<void(std::size_t)> source;
  // An executor task per slab (the codec call).
  std::function<void(std::size_t)> lane;
  // Calling thread, slab order, once slab i's lane finished (the write
  // side's container append).
  std::function<void(std::size_t)> sink;
};

// Runs n slabs through at most `lanes` concurrent lane tasks, dispatched
// in slab order whenever a lane frees. A queue of `queue_depth` slabs sits
// between the serial stage and the lanes, and admission follows it:
//   - with a sink, slab i enters the lanes once the sink has taken slab
//     i - (lanes + queue_depth): W slabs coding plus queue_depth coded
//     slabs waiting for the sink;
//   - otherwise source(i) runs once slab i - (1 + queue_depth) has been
//     dispatched to a lane: queue_depth fetched slabs waiting for a lane
//     plus the one being fetched.
// With lanes = 1 this is exactly the bounded-channel producer/consumer the
// pipelines ran before lanes. The first exception from any stage stops
// further dispatch, waits for running lanes, and propagates; no lane task
// outlives the call. Called on a global executor worker it throws Error
// before dispatching anything: its waits would hold that worker, and lane
// tasks need free workers to finish.
void run_ordered_lanes(std::size_t n, int lanes, std::size_t queue_depth,
                       const LaneStages& stages);

}  // namespace eblcio
