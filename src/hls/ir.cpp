#include "hls/ir.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"

namespace icsc::hls {

int op_latency(OpKind kind) {
  switch (kind) {
    case OpKind::kInput:
    case OpKind::kConst:
    case OpKind::kOutput:
      return 0;
    case OpKind::kAdd:
    case OpKind::kCmp:
    case OpKind::kSelect:
      return 1;
    case OpKind::kMul:
      return 3;   // pipelined DSP multiplier
    case OpKind::kDiv:
      return 12;  // iterative divider
    case OpKind::kLoad:
      return 4;   // through the memory controller (cache hit)
    case OpKind::kStore:
      return 1;   // posted write
  }
  return 0;
}

FuClass op_fu_class(OpKind kind) {
  switch (kind) {
    case OpKind::kAdd:
    case OpKind::kCmp:
    case OpKind::kSelect:
      return FuClass::kAlu;
    case OpKind::kMul:
      return FuClass::kMul;
    case OpKind::kDiv:
      return FuClass::kDiv;
    case OpKind::kLoad:
    case OpKind::kStore:
      return FuClass::kMemPort;
    case OpKind::kInput:
    case OpKind::kConst:
    case OpKind::kOutput:
      return FuClass::kNone;
  }
  return FuClass::kNone;
}

const char* op_name(OpKind kind) {
  switch (kind) {
    case OpKind::kInput: return "input";
    case OpKind::kConst: return "const";
    case OpKind::kAdd: return "add";
    case OpKind::kMul: return "mul";
    case OpKind::kDiv: return "div";
    case OpKind::kCmp: return "cmp";
    case OpKind::kSelect: return "select";
    case OpKind::kLoad: return "load";
    case OpKind::kStore: return "store";
    case OpKind::kOutput: return "output";
  }
  return "?";
}

std::size_t Kernel::add_op(OpKind kind, std::vector<std::size_t> operands) {
  for (const std::size_t operand : operands) {
    if (operand >= ops_.size()) {
      throw core::Error("hls::Kernel::add_op",
                        "operands must precede consumers",
                        name_ + ": operand " + std::to_string(operand) +
                            " of op " + std::to_string(ops_.size()));
    }
  }
  ops_.push_back(Op{kind, std::move(operands)});
  return ops_.size() - 1;
}

int Kernel::critical_path() const {
  std::vector<int> finish(ops_.size(), 0);
  int best = 0;
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    int start = 0;
    for (const std::size_t operand : ops_[i].operands) {
      start = std::max(start, finish[operand]);
    }
    finish[i] = start + op_latency(ops_[i].kind);
    best = std::max(best, finish[i]);
  }
  return best;
}

std::size_t Kernel::count_class(FuClass cls) const {
  std::size_t count = 0;
  for (const auto& op : ops_) {
    if (op_fu_class(op.kind) == cls) ++count;
  }
  return count;
}

bool Kernel::is_well_formed() const {
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (const std::size_t operand : ops_[i].operands) {
      if (operand >= i) return false;
    }
  }
  return true;
}

Kernel make_fir_kernel(int taps) {
  Kernel k("fir" + std::to_string(taps));
  std::size_t acc = k.constant();
  for (int t = 0; t < taps; ++t) {
    const std::size_t sample = k.input();
    const std::size_t coeff = k.constant();
    acc = k.add(acc, k.mul(sample, coeff));
  }
  k.output(acc);
  return k;
}

Kernel make_dot_kernel(int n) {
  Kernel k("dot" + std::to_string(n));
  // Balanced reduction tree over n products.
  std::vector<std::size_t> terms;
  terms.reserve(n);
  for (int i = 0; i < n; ++i) {
    terms.push_back(k.mul(k.input(), k.input()));
  }
  while (terms.size() > 1) {
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i + 1 < terms.size(); i += 2) {
      next.push_back(k.add(terms[i], terms[i + 1]));
    }
    if (terms.size() % 2 == 1) next.push_back(terms.back());
    terms = std::move(next);
  }
  k.output(terms.front());
  return k;
}

Kernel make_spmv_row_kernel(int nnz) {
  Kernel k("spmv_row" + std::to_string(nnz));
  std::size_t acc = k.constant();
  for (int e = 0; e < nnz; ++e) {
    const std::size_t col_index = k.load(k.input());   // col[e]
    const std::size_t x_value = k.load(col_index);     // x[col[e]] (indirect)
    const std::size_t weight = k.load(k.input());      // A.val[e]
    acc = k.add(acc, k.mul(x_value, weight));
  }
  k.output(acc);
  return k;
}

Kernel make_bfs_expand_kernel(int degree) {
  Kernel k("bfs_expand" + std::to_string(degree));
  const std::size_t next_level = k.input();
  for (int e = 0; e < degree; ++e) {
    const std::size_t neighbour = k.load(k.input());        // col[e]
    const std::size_t level = k.load(neighbour);            // level[w]
    const std::size_t unvisited = k.cmp(level, k.constant());
    const std::size_t updated = k.select(unvisited, next_level, level);
    k.store(neighbour, updated);
  }
  return k;
}

Kernel unroll_kernel(const Kernel& kernel, int factor) {
  Kernel out(kernel.name() + "_x" + std::to_string(factor));
  for (int copy = 0; copy < factor; ++copy) {
    const std::size_t base = out.size();
    for (const auto& op : kernel.ops()) {
      std::vector<std::size_t> operands;
      operands.reserve(op.operands.size());
      for (const std::size_t operand : op.operands) {
        operands.push_back(base + operand);
      }
      out.add_op(op.kind, std::move(operands));
    }
  }
  return out;
}

}  // namespace icsc::hls
