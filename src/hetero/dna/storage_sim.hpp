// End-to-end DNA-storage pipeline simulation (DNAssim-style, [26]).
//
// Fig. 6b: binary data -> encoding -> synthesis -> storage -> sequencing
// -> clustering -> consensus -> decoding. This module wires the dna::
// components into one run and reports recovery quality plus the decode-time
// split between a CPU backend and the FPGA accelerator model, reproducing
// the Sec. VI observation that edit-distance computation dominates decoding
// and is the profitable acceleration target.
#pragma once

#include <cstdint>
#include <vector>

#include "hetero/dna/channel.hpp"
#include "hetero/dna/cluster.hpp"
#include "hetero/dna/ecc.hpp"
#include "hetero/dna/encoding.hpp"
#include "hetero/dna/fpga_accel.hpp"

namespace icsc::hetero::dna {

struct StorageSimParams {
  std::size_t payload_bytes = 2048;
  std::size_t chunk_bytes = 16;
  ChannelParams channel;
  ClusterParams clustering;
};

struct StorageSimResult {
  std::size_t strands = 0;
  std::size_t reads = 0;
  std::size_t clusters = 0;
  double cluster_purity = 0.0;
  double byte_error_rate = 0.0;   // decoded vs original payload
  std::size_t missing_chunks = 0;
  std::uint64_t pair_comparisons = 0;
  std::uint64_t dp_cells = 0;
  /// Decode-time estimates for the edit-distance workload.
  double cpu_decode_seconds = 0.0;
  double accel_decode_seconds = 0.0;
  /// Measured wall-clock of each simulation stage (seconds) -- the
  /// DNAssim speed decomposition [26]: clustering dominates, which is why
  /// the FPGA integration targets the edit-distance kernel.
  double wall_encode_s = 0.0;
  double wall_channel_s = 0.0;
  double wall_cluster_s = 0.0;
  double wall_consensus_s = 0.0;
  double wall_decode_s = 0.0;
};

/// Runs the full pipeline on a deterministic pseudo-random payload.
StorageSimResult run_storage_sim(const StorageSimParams& params,
                                 const CpuEditProfile& cpu = {},
                                 const EditAcceleratorModel& accel =
                                     EditAcceleratorModel{});

/// Reliability-hardened archival pipeline: outer erasure code across
/// strands (ecc.hpp) plus multi-pass re-read retry in front of the decode.
/// This is the configuration the fault-campaign bench sweeps: burst errors
/// and strand dropout are injected in the channel, re-reading rescues
/// low-coverage strands, and the ECC repairs what remains missing.
struct ArchivalSimParams {
  std::size_t payload_bytes = 2048;
  std::size_t chunk_bytes = 16;
  ChannelParams channel;
  RereadParams reread;
  ClusterParams clustering;
  EccParams ecc;
};

struct ArchivalSimResult {
  std::size_t strands = 0;  // data + parity
  std::size_t reads = 0;
  std::size_t clusters = 0;
  double byte_error_rate = 0.0;  // decoded vs original payload
  std::size_t missing_before_repair = 0;
  std::size_t repaired_chunks = 0;
  std::size_t missing_after_repair = 0;
  int passes_used = 1;
  std::size_t rescued_strands = 0;
  std::size_t unrecovered_strands = 0;
};

/// Runs the archival pipeline on a deterministic pseudo-random payload
/// (same payload derivation as run_storage_sim for a given channel seed).
ArchivalSimResult run_archival_sim(const ArchivalSimParams& params);

}  // namespace icsc::hetero::dna
