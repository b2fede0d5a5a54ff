#include "runtime/scatter_plan.h"

#include <stdexcept>

#include "runtime/runtime.h"

namespace statsize::runtime {

std::size_t ScatterPlan::add_item(const int* targets, std::size_t n) {
  if (frozen_) throw std::logic_error("ScatterPlan::add_item after freeze()");
  const std::size_t begin = slot_target_.size();
  slot_target_.insert(slot_target_.end(), targets, targets + n);
  return begin;
}

void ScatterPlan::freeze(std::size_t num_targets) {
  if (frozen_) throw std::logic_error("ScatterPlan::freeze called twice");
  num_targets_ = num_targets;

  // Counting sort of slots by target. Appending slots in ascending id order
  // leaves every target's slot list ascending — the property fold_add needs
  // to reproduce the serial scatter's per-target accumulation order.
  std::vector<std::size_t> count(num_targets, 0);
  for (const int t : slot_target_) {
    if (t < 0 || static_cast<std::size_t>(t) >= num_targets) {
      throw std::out_of_range("ScatterPlan: target index out of range");
    }
    ++count[static_cast<std::size_t>(t)];
  }
  std::size_t nonempty = 0;
  for (const std::size_t c : count) nonempty += c != 0 ? 1 : 0;
  targets_.reserve(nonempty);
  row_begin_.reserve(nonempty + 1);
  row_begin_.push_back(0);
  std::vector<std::size_t> row_of(num_targets, 0);
  for (std::size_t t = 0; t < num_targets; ++t) {
    if (count[t] == 0) continue;
    row_of[t] = targets_.size();
    targets_.push_back(static_cast<int>(t));
    row_begin_.push_back(row_begin_.back() + count[t]);
  }
  slot_of_.resize(slot_target_.size());
  std::vector<std::size_t> cursor(row_begin_.begin(), row_begin_.end() - 1);
  for (std::size_t s = 0; s < slot_target_.size(); ++s) {
    const std::size_t row = row_of[static_cast<std::size_t>(slot_target_[s])];
    slot_of_[cursor[row]++] = s;
  }
  frozen_ = true;
}

void ScatterPlan::fold_add(const double* vals, double* out, std::size_t grain) const {
  if (!frozen_) throw std::logic_error("ScatterPlan::fold_add before freeze()");
  parallel_for(targets_.size(), grain, [&](std::size_t rb, std::size_t re) {
    for (std::size_t r = rb; r < re; ++r) {
      double acc = out[static_cast<std::size_t>(targets_[r])];
      for (std::size_t k = row_begin_[r]; k < row_begin_[r + 1]; ++k) {
        acc += vals[slot_of_[k]];
      }
      out[static_cast<std::size_t>(targets_[r])] = acc;
    }
  });
}

}  // namespace statsize::runtime
