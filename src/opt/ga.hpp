// Genetic-algorithm device sizing (paper §IV-A: FoM@10 is reported "after
// sizing with a genetic algorithm and SPICE evaluation").
//
// Generic real-coded GA over the unit cube with tournament selection,
// blend crossover, and Gaussian mutation, plus a topology-sizing wrapper
// that decodes genomes through spice::sizing_from_unit and scores with the
// mini-SPICE FoM.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "circuit/classify.hpp"
#include "spice/fom.hpp"
#include "util/rng.hpp"

namespace eva::opt {

struct GaConfig {
  int population = 24;
  int generations = 10;
  int elites = 2;
  int tournament = 3;
  double crossover_rate = 0.9;
  double mutation_rate = 0.2;
  double mutation_sigma = 0.15;
  std::uint64_t seed = 2024;
};

struct GaResult {
  std::vector<double> best;       // genome in [0,1]^dim
  double best_fitness = 0.0;
  std::vector<double> history;    // best fitness per generation
};

/// Fitness of a batch of genomes: fit[i] for *genomes[i]. The GA hands it
/// a whole generation at once (the initial population, then each
/// generation's offspring), so it may score them side by side.
using BatchFitness =
    std::function<void(std::span<const std::vector<double>* const> genomes,
                       std::span<double> fit)>;

/// Maximize `fitness` over [0,1]^dim.
[[nodiscard]] GaResult ga_optimize(int dim, const BatchFitness& fitness,
                                   const GaConfig& cfg);

/// The same search with a per-genome fitness, run over the pool one
/// genome at a time: returns what the batch form returns for the same
/// scores.
[[nodiscard]] GaResult ga_optimize(
    int dim, const std::function<double(const std::vector<double>&)>& fitness,
    const GaConfig& cfg);

struct SizingResult {
  spice::Sizing sizing;
  spice::Performance perf;   // performance at the best sizing
  bool ok = false;
};

/// GA-size one topology for the target circuit type's FoM.
[[nodiscard]] SizingResult size_topology(const circuit::Netlist& nl,
                                         circuit::CircuitType target,
                                         const GaConfig& cfg);

}  // namespace eva::opt
