// Base of the windowed operators (paper §4.1: a windowed operator triggers
// only when all data from a section of the stream has been observed). It
// owns the one copy of the per-channel watermark.
//
// Channel credit: channels deliver in order, and a channel's progress is
// the highest batch progress it has reported, starting from 0. The
// watermark is the minimum progress across the expected channels; it stays
// at -1 until that many channels have reported and never falls. Only
// channels wired by the topology count: progress from an invalid sender
// (external ingestion) or from an operator outside the wired set
// (SetChannels) earns no credit, so the watermark cannot advance before
// every real upstream channel has reported. An operator that was never
// wired credits every valid sender it hears from. The sender's data is
// folded either way; only its progress is ignored.
//
// Late data: a fold into a window whose end is already <= the watermark
// would re-create a window that has fired (and re-emit it on the next
// advance). Such folds are dropped and counted in late_dropped().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataflow/operator.h"

namespace cameo {

class WindowedOperator : public Operator {
 public:
  /// `min_channels` is the channel count the watermark waits for while
  /// unwired, and the floor of the count once wired: 1 for single-input
  /// operators, 2 for a join, which always waits on both sides.
  WindowedOperator(std::string name, WindowSpec window, CostModel cost,
                   int min_channels);

  /// Declares the exact upstream operator ids that feed this replica (wired
  /// by FinalizeChannels from the topology, before any message arrives).
  /// The watermark then waits for max(min_channels, set size) channels.
  void SetChannels(std::vector<std::int64_t> channel_ids);

  LogicalTime watermark() const { return watermark_; }
  /// Dropped folds whose window had already fired; each operator documents
  /// what one count is.
  std::int64_t late_dropped() const { return late_dropped_; }

 protected:
  /// Credits `m`'s progress to its channel; returns true when the watermark
  /// rose.
  bool CreditProgress(const Message& m);

  std::int64_t late_dropped_ = 0;

 private:
  static constexpr LogicalTime kUnreported = kTimeMin;

  const int min_channels_;
  int expected_channels_;
  bool wired_ = false;
  /// Sorted channel ids and their progress (kUnreported until the channel's
  /// first message).
  std::vector<std::int64_t> channels_;
  std::vector<LogicalTime> progress_;
  int reported_ = 0;
  LogicalTime watermark_ = -1;
};

}  // namespace cameo
