// Perplexity and the fixed-penalty regularizer baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "data/metrics.hpp"
#include "pruning/reweighted.hpp"
#include "tensor/random.hpp"

namespace {

TEST(Perplexity, UniformModelGivesVocabSize) {
  // NLL of a uniform model over V tokens is ln(V) per token.
  const double nll = std::log(96.0) * 50;
  EXPECT_NEAR(et::data::perplexity(nll, 50), 96.0, 1e-9);
  EXPECT_EQ(et::data::perplexity(0.0, 0), 0.0);
  EXPECT_NEAR(et::data::perplexity(0.0, 10), 1.0, 1e-12);
}

TEST(FixedPenalty, BetaStaysOneWithoutReweighting) {
  et::train::Param p(32, 32);
  et::tensor::fill_normal(p.w, 1);
  // Make tile (0,0) tiny: under reweighting its gradient would explode.
  for (std::size_t i = 0; i < 16; ++i) {
    for (std::size_t j = 0; j < 16; ++j) p.w(i, j) *= 1e-4f;
  }
  et::pruning::ReweightedConfig cfg;
  cfg.lambda = 1e-2f;
  cfg.reweighted = false;
  et::pruning::GroupLassoRegularizer reg({&p}, cfg);
  reg.update_penalties();  // must be a no-op
  p.zero_grad();
  reg.add_gradients();

  // With β = 1 everywhere, gradient magnitude is λ·w/‖tile‖ — the
  // *relative* shrinkage per element is λ/‖tile‖ for every tile; compare
  // against the reweighted variant where the weak tile's β is huge.
  const double weak_grad_fixed = std::abs(p.g(0, 0));

  et::pruning::ReweightedConfig rcfg = cfg;
  rcfg.reweighted = true;
  et::pruning::GroupLassoRegularizer rew({&p}, rcfg);
  rew.update_penalties();
  p.zero_grad();
  rew.add_gradients();
  const double weak_grad_rew = std::abs(p.g(0, 0));

  EXPECT_GT(weak_grad_rew, 10.0 * weak_grad_fixed)
      << "reweighting must push weak tiles much harder";
}

}  // namespace
