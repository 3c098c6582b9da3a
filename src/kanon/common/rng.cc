#include "kanon/common/rng.h"

#include <deque>

#include "kanon/common/hash.h"

namespace kanon {

namespace {

// splitmix64 finalizer: a bijective avalanche mix.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng Rng::Fork(uint64_t label) const {
  // Two rounds of mixing with distinct additive constants decorrelate the
  // substream from both the parent stream (which steps by the same golden
  // ratio) and from sibling labels. Depends only on root_, never on state_.
  const uint64_t mixed_label = Mix64(label + 0x632be59bd9b4e019ULL);
  return Rng(Mix64(root_ ^ mixed_label ^ 0x9e3779b97f4a7c15ULL));
}

Rng Rng::Fork(std::string_view label) const {
  // FNV-1a over the label bytes, then the integer fork path.
  return Fork(Fnv1a(label.data(), label.size()));
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    KANON_CHECK(w >= 0.0, "NextWeighted requires non-negative weights");
    total += w;
  }
  KANON_CHECK(total > 0.0, "NextWeighted requires a positive weight sum");
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (target < acc) {
      return i;
    }
  }
  return weights.size() - 1;  // Floating-point slack.
}

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  KANON_CHECK(!weights.empty(), "AliasSampler requires at least one weight");
  const size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    KANON_CHECK(w >= 0.0, "AliasSampler requires non-negative weights");
    total += w;
  }
  KANON_CHECK(total > 0.0, "AliasSampler requires a positive weight sum");

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::deque<size_t> small;
  std::deque<size_t> large;
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(i);
  }
  while (!small.empty() && !large.empty()) {
    size_t s = small.front();
    small.pop_front();
    size_t l = large.front();
    large.pop_front();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  while (!large.empty()) {
    prob_[large.front()] = 1.0;
    large.pop_front();
  }
  while (!small.empty()) {
    prob_[small.front()] = 1.0;  // Floating-point slack.
    small.pop_front();
  }
}

size_t AliasSampler::Sample(Rng* rng) const {
  size_t i = static_cast<size_t>(rng->NextBounded(prob_.size()));
  return rng->NextDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace kanon
