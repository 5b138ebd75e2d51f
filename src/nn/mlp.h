// Multi-layer perceptron trained with back-propagated SGD (paper Sec. 5.2
// / D.2: "back-propagation with stochastic gradient descent is the de
// facto method of optimizing a deep neural network"; the SGD code path is
// invoked per layer in a round-robin fashion). The default geometry is the
// paper's seven-layer, ~0.8M-parameter network for MNIST-like digits.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace dw::nn {

/// Network geometry.
struct MlpConfig {
  /// Layer widths, input first, logits last. Seven layers, ~793K weights.
  std::vector<int> layer_sizes = {784, 500, 400, 300, 200, 100, 10};
  uint64_t seed = 1;
};

/// Per-worker scratch (activations and deltas); reused across examples.
struct MlpScratch {
  std::vector<std::vector<double>> act;    ///< activations per layer
  std::vector<std::vector<double>> delta;  ///< back-propagated errors
};

/// The MLP: topology plus helpers that operate on an external, flat
/// parameter buffer so replicas can live wherever the caller wants
/// (node-local arrays, shared Hogwild! buffer, ...).
class Mlp {
 public:
  explicit Mlp(MlpConfig config);

  /// Total parameter count (weights + biases).
  size_t num_params() const { return num_params_; }

  /// Neurons evaluated per example (the throughput unit of Fig. 17(b)).
  size_t neurons_per_example() const { return neurons_per_example_; }

  int num_layers() const { return static_cast<int>(config_.layer_sizes.size()); }
  const MlpConfig& config() const { return config_; }

  /// Xavier-style initialization of a parameter buffer.
  void InitParams(double* params, uint64_t seed) const;

  /// Allocates scratch sized for this network.
  MlpScratch MakeScratch() const;

  /// Forward pass; returns the cross-entropy loss of `label`.
  double Forward(const double* params, const double* input, int label,
                 MlpScratch* scratch) const;

  /// One SGD step (forward + backward + in-place update of `params`).
  void TrainExample(double* params, const double* input, int label,
                    double learning_rate, MlpScratch* scratch) const;

  /// Mean loss over a set of examples.
  double MeanLoss(const double* params, const std::vector<double>& inputs,
                  const std::vector<int>& labels, int input_dim,
                  MlpScratch* scratch) const;

 private:
  MlpConfig config_;
  size_t num_params_ = 0;
  size_t neurons_per_example_ = 0;
  std::vector<size_t> weight_offset_;
  std::vector<size_t> bias_offset_;
};

/// MNIST-like dataset: 28x28 "digit" images sampled from 10 noisy class
/// templates, flattened to 784 doubles in [0, 1].
struct DigitData {
  int input_dim = 784;
  std::vector<double> images;  ///< n x input_dim, row-major
  std::vector<int> labels;     ///< n, in [0, 10)
  int num_examples() const {
    return input_dim == 0 ? 0 : static_cast<int>(images.size()) / input_dim;
  }
};

/// Generates `n` examples (paper Fig. 10 MNIST row at scale: 120M neuron
/// evaluations come from n * neurons_per_example).
DigitData MakeMnistLike(int n, uint64_t seed);

}  // namespace dw::nn
