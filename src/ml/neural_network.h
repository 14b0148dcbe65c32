#ifndef REMEDY_ML_NEURAL_NETWORK_H_
#define REMEDY_ML_NEURAL_NETWORK_H_

#include <memory>
#include <vector>

#include "data/encoding.h"
#include "ml/classifier.h"

namespace remedy {

struct NeuralNetworkParams {
  int hidden_units = 16;
  double learning_rate = 0.05;
  double l2 = 1e-5;
  int epochs = 20;
  int batch_size = 64;
  uint64_t seed = 13;
  // Workers for the per-batch gradient accumulation: 1 = serial, <= 0 =
  // every usable CPU. Bit-identical for every value — each batch is split
  // into fixed 64-row sub-blocks whose gradients (taken at batch-start
  // weights) are applied in sub-block order. Parallelism only materializes
  // when batch_size spans several sub-blocks.
  int threads = 1;
};

// One-hidden-layer MLP (leaky-ReLU hidden, sigmoid output) over
// one-hot-encoded features, trained by mini-batch gradient descent on
// weighted log-loss: each shuffled batch accumulates its gradient at the
// batch-start weights and applies it once.
class NeuralNetwork : public Classifier {
 public:
  explicit NeuralNetwork(NeuralNetworkParams params = {});

  void Fit(const Dataset& train) override;
  void FitEncoded(const EncodedMatrix& train) override;
  double PredictProba(const Dataset& data, int row) const override;
  std::vector<double> PredictProbaAll(const Dataset& data) const override;
  std::vector<double> PredictProbaAllEncoded(
      const EncodedMatrix& data) const override;

 private:
  // Forward pass for one sparse row (active one-hot index per attribute);
  // fills the hidden_units activations and returns the output probability.
  double Forward(const int* active, int num_columns, double* hidden) const;

  NeuralNetworkParams params_;
  std::unique_ptr<OneHotEncoder> encoder_;
  int input_width_ = 0;
  // hidden_weights_[j * hidden_units + h] (input-major: the weights out of
  // one one-hot input are contiguous), hidden_bias_[h], output_weights_[h],
  // output_bias_.
  std::vector<double> hidden_weights_;
  std::vector<double> hidden_bias_;
  std::vector<double> output_weights_;
  double output_bias_ = 0.0;
};

}  // namespace remedy

#endif  // REMEDY_ML_NEURAL_NETWORK_H_
