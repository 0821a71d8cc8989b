// Dataflow intermediate representation for the mini HLS flow (Sec. III).
//
// Bambu consumes "C/C++ specifications, but also compiler intermediate
// representations (IRs) generated from AI frameworks". Our IR is a small
// SSA dataflow graph: each operation produces one value, operands refer to
// producer indices, and operation kinds carry the latency/resource-class
// information the scheduler and the estimator need. A kernel library
// provides the dataflow graphs the Sec. III experiments schedule (FIR,
// GEMM tiles, SpMV rows, BFS frontier expansion).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace icsc::hls {

enum class OpKind {
  kInput,    // kernel argument / stream read
  kConst,    // literal
  kAdd,      // integer/fixed add-sub class
  kMul,      // multiplier
  kDiv,      // iterative divider
  kCmp,      // comparison / logic
  kSelect,   // multiplexer
  kLoad,     // external memory read (uses a memory port)
  kStore,    // external memory write
  kOutput    // kernel result
};

/// Resource class an operation occupies during execution.
enum class FuClass { kNone, kAlu, kMul, kDiv, kMemPort };

/// Latency in cycles and the functional-unit class for each op kind.
int op_latency(OpKind kind);
FuClass op_fu_class(OpKind kind);
const char* op_name(OpKind kind);

struct Op {
  OpKind kind = OpKind::kConst;
  std::vector<std::size_t> operands;  // producer value ids
};

/// A pure dataflow kernel: ops in topological order (operands < consumer).
class Kernel {
public:
  explicit Kernel(std::string name) : name_(std::move(name)) {}

  /// Appends an op and returns its id. Throws core::Error, storing nothing,
  /// unless every operand is the id of an earlier op, so every kernel is a
  /// DAG in topological order.
  std::size_t add_op(OpKind kind, std::vector<std::size_t> operands = {});

  // Builder conveniences.
  std::size_t input() { return add_op(OpKind::kInput); }
  std::size_t constant() { return add_op(OpKind::kConst); }
  std::size_t add(std::size_t a, std::size_t b) { return add_op(OpKind::kAdd, {a, b}); }
  std::size_t mul(std::size_t a, std::size_t b) { return add_op(OpKind::kMul, {a, b}); }
  std::size_t div(std::size_t a, std::size_t b) { return add_op(OpKind::kDiv, {a, b}); }
  std::size_t cmp(std::size_t a, std::size_t b) { return add_op(OpKind::kCmp, {a, b}); }
  std::size_t select(std::size_t c, std::size_t a, std::size_t b) {
    return add_op(OpKind::kSelect, {c, a, b});
  }
  std::size_t load(std::size_t addr) { return add_op(OpKind::kLoad, {addr}); }
  std::size_t store(std::size_t addr, std::size_t value) {
    return add_op(OpKind::kStore, {addr, value});
  }
  void output(std::size_t value) { add_op(OpKind::kOutput, {value}); }

  const std::string& name() const { return name_; }
  const std::vector<Op>& ops() const { return ops_; }
  std::size_t size() const { return ops_.size(); }

  /// Length of the longest latency path (lower bound on any schedule).
  int critical_path() const;

  /// Count of ops per functional-unit class.
  std::size_t count_class(FuClass cls) const;

  /// Validates SSA ordering (every operand precedes its consumer), which
  /// add_op enforces.
  bool is_well_formed() const;

private:
  std::string name_;
  std::vector<Op> ops_;
};

/// Kernel library used by the Sec. III experiments.
/// taps-tap FIR filter body (one output sample).
Kernel make_fir_kernel(int taps);
/// Dot product of length n (the GEMM inner loop body).
Kernel make_dot_kernel(int n);
/// One SpMV row with nnz non-zeros: indirect loads x[col[e]].
Kernel make_spmv_row_kernel(int nnz);
/// BFS frontier expansion for a vertex with `degree` neighbours: load
/// neighbour levels, compare, select, store updates.
Kernel make_bfs_expand_kernel(int degree);
/// Unrolls a kernel `factor` times (independent copies, shared inputs):
/// the HLS "unroll" knob the DSE sweeps.
Kernel unroll_kernel(const Kernel& kernel, int factor);

}  // namespace icsc::hls
