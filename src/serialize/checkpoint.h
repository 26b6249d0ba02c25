// Model checkpointing: a small, versioned binary format for parameters and
// persistent buffers (BN running statistics).
//
// Replicability contract: a checkpoint round-trip is *bitwise* lossless —
// float32 payloads are written as raw IEEE-754 bytes, never through text —
// so save -> load -> continue training is indistinguishable from an
// uninterrupted run under deterministic execution (enforced by
// tests/serialize/checkpoint_test.cc). This is the property that makes
// checkpoint/resume safe to use inside replicability studies: a lossy
// checkpoint (e.g. text round-trip) would itself be a source of
// implementation noise.
//
// Format (little-endian, the only byte order the simulated stack targets):
//   magic "NNRCKPT1" | u32 entry count
//   per entry: u32 kind (0 = param, 1 = buffer) | u32 name length | name
//              | u32 rank | i64 dims[rank] | f32 payload[numel]
//   trailer: u64 FNV-1a over everything after the magic
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "nn/model.h"
#include "opt/optimizer.h"

namespace nnr::serialize {

/// Thrown on I/O failure, format violation, checksum mismatch, or a
/// model/checkpoint structure mismatch on load.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes all parameters and buffers of `model` to `path`, replacing it
/// atomically: a failed save throws and leaves the previous file intact.
void save_model(const std::string& path, nn::Model& model);

/// Restores parameters and buffers into `model`, which must have the same
/// structure (entry count, names, shapes, in order) as the saved model.
/// Gradients and all layer caches are left untouched.
void load_model(const std::string& path, nn::Model& model);

/// Number of (param + buffer) entries a checkpoint of `model` would hold.
[[nodiscard]] std::size_t checkpoint_entry_count(nn::Model& model);

/// Writes model state AND optimizer state (momentum velocities / Adam
/// moments / step counter). Resuming from a training-state checkpoint is
/// bitwise indistinguishable from never stopping, with no optimizer-restart
/// caveat (magic "NNRTRNS1"; model-only files use "NNRCKPT1"). Replaces
/// `path` atomically, like save_model.
void save_training_state(const std::string& path, nn::Model& model,
                         opt::Optimizer& optimizer);

/// Restores model and optimizer state saved by save_training_state. The
/// optimizer must have the same structure (slot names and sizes) as the
/// saved one — in practice: same optimizer type over the same model.
void load_training_state(const std::string& path, nn::Model& model,
                         opt::Optimizer& optimizer);

}  // namespace nnr::serialize
