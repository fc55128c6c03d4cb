#include "dataflow/windowed_operator.h"

#include <algorithm>

#include "common/check.h"

namespace cameo {

WindowedOperator::WindowedOperator(std::string name, WindowSpec window,
                                   CostModel cost, int min_channels)
    : Operator(std::move(name), window, cost),
      min_channels_(min_channels),
      expected_channels_(min_channels) {}

void WindowedOperator::SetChannels(std::vector<std::int64_t> channel_ids) {
  CAMEO_EXPECTS(!channel_ids.empty());
  CAMEO_EXPECTS(reported_ == 0);  // wiring precedes traffic
  std::sort(channel_ids.begin(), channel_ids.end());
  channel_ids.erase(std::unique(channel_ids.begin(), channel_ids.end()),
                    channel_ids.end());
  channels_ = std::move(channel_ids);
  progress_.assign(channels_.size(), kUnreported);
  expected_channels_ =
      std::max(min_channels_, static_cast<int>(channels_.size()));
  wired_ = true;
}

bool WindowedOperator::CreditProgress(const Message& m) {
  if (!m.sender.valid()) return false;
  const std::int64_t id = m.sender.value;
  auto it = std::lower_bound(channels_.begin(), channels_.end(), id);
  const auto i = it - channels_.begin();
  if (it == channels_.end() || *it != id) {
    if (wired_) return false;
    channels_.insert(it, id);
    progress_.insert(progress_.begin() + i, kUnreported);
  }
  LogicalTime& p = progress_[static_cast<std::size_t>(i)];
  if (p == kUnreported) {
    p = 0;
    ++reported_;
  }
  p = std::max(p, m.progress());
  if (reported_ < expected_channels_) return false;
  // Every channel has reported here: a wired set's count is at least its
  // size, and an unwired one holds only channels that reported.
  const LogicalTime wm = *std::min_element(progress_.begin(), progress_.end());
  if (wm <= watermark_) return false;
  watermark_ = wm;
  return true;
}

}  // namespace cameo
