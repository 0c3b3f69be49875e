#include "opt/ga.hpp"

#include <algorithm>

#include "util/parallel.hpp"

namespace eva::opt {

GaResult ga_optimize(int dim, const BatchFitness& fitness,
                     const GaConfig& cfg) {
  EVA_REQUIRE(dim > 0, "ga_optimize: dim must be positive");
  EVA_REQUIRE(cfg.population >= 4, "ga_optimize: population too small");
  Rng rng(cfg.seed);

  struct Individual {
    std::vector<double> genome;
    double fit = 0.0;
  };
  std::vector<Individual> pop(static_cast<std::size_t>(cfg.population));
  for (auto& ind : pop) {
    ind.genome.resize(static_cast<std::size_t>(dim));
    for (auto& g : ind.genome) g = rng.uniform();
  }
  // Seed one individual at the center (default-ish sizing).
  std::fill(pop[0].genome.begin(), pop[0].genome.end(), 0.5);

  // Scores pop[from..] in one batch.
  std::vector<const std::vector<double>*> genomes;
  std::vector<double> fit;
  auto evaluate = [&](std::size_t from) {
    genomes.clear();
    for (std::size_t i = from; i < pop.size(); ++i) {
      genomes.push_back(&pop[i].genome);
    }
    fit.assign(genomes.size(), 0.0);
    fitness(genomes, fit);
    for (std::size_t i = from; i < pop.size(); ++i) pop[i].fit = fit[i - from];
  };
  evaluate(0);

  auto better = [](const Individual& a, const Individual& b) {
    return a.fit > b.fit;
  };

  GaResult res;
  for (int gen = 0; gen < cfg.generations; ++gen) {
    std::sort(pop.begin(), pop.end(), better);
    res.history.push_back(pop.front().fit);

    std::vector<Individual> next;
    next.reserve(pop.size());
    for (int e = 0; e < cfg.elites && e < cfg.population; ++e) {
      next.push_back(pop[static_cast<std::size_t>(e)]);
    }
    auto tournament_pick = [&]() -> const Individual& {
      const Individual* best = &pop[rng.index(pop.size())];
      for (int t = 1; t < cfg.tournament; ++t) {
        const Individual& cand = pop[rng.index(pop.size())];
        if (cand.fit > best->fit) best = &cand;
      }
      return *best;
    };
    while (next.size() < pop.size()) {
      Individual child;
      const Individual& pa = tournament_pick();
      const Individual& pb = tournament_pick();
      child.genome.resize(static_cast<std::size_t>(dim));
      const bool crossover = rng.chance(cfg.crossover_rate);
      for (int d = 0; d < dim; ++d) {
        const auto di = static_cast<std::size_t>(d);
        double g = crossover
                       ? (rng.chance(0.5) ? pa.genome[di] : pb.genome[di])
                       : pa.genome[di];
        if (rng.chance(cfg.mutation_rate)) {
          g += rng.normal(0.0, cfg.mutation_sigma);
        }
        child.genome[di] = std::clamp(g, 0.0, 1.0);
      }
      next.push_back(std::move(child));
    }
    pop = std::move(next);
    // Elites keep their fitness; evaluate the offspring.
    evaluate(static_cast<std::size_t>(cfg.elites));
  }
  std::sort(pop.begin(), pop.end(), better);
  res.best = pop.front().genome;
  res.best_fitness = pop.front().fit;
  res.history.push_back(res.best_fitness);
  return res;
}

GaResult ga_optimize(
    int dim, const std::function<double(const std::vector<double>&)>& fitness,
    const GaConfig& cfg) {
  const auto batch = [&](std::span<const std::vector<double>* const> genomes,
                         std::span<double> fit) {
    parallel_for(0, genomes.size(),
                 [&](std::size_t i) { fit[i] = fitness(*genomes[i]); });
  };
  return ga_optimize(dim, BatchFitness(batch), cfg);
}

SizingResult size_topology(const circuit::Netlist& nl,
                           circuit::CircuitType target, const GaConfig& cfg) {
  SizingResult out;
  const int dim = nl.num_devices();
  if (dim == 0) return out;

  const spice::Evaluator evaluator(nl, target);
  // One lane group of candidates per pool task: each group's DC points
  // are solved side by side, and the grouping does not depend on the
  // pool's width.
  const auto fitness = [&](std::span<const std::vector<double>* const> genomes,
                           std::span<double> fit) {
    const std::size_t groups = (genomes.size() + spice::kLanes - 1) /
                               spice::kLanes;
    parallel_for(0, groups, [&](std::size_t g) {
      const std::size_t first = g * spice::kLanes;
      const std::size_t n = std::min(spice::kLanes, genomes.size() - first);
      std::vector<spice::Sizing> sizings;
      sizings.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        sizings.push_back(evaluator.sizing_from_unit(*genomes[first + i]));
      }
      std::vector<spice::Performance> perf(n);
      evaluator.evaluate(sizings, perf);
      for (std::size_t i = 0; i < n; ++i) {
        fit[first + i] = perf[i].ok ? perf[i].fom : -1.0;
      }
    });
  };
  const GaResult ga = ga_optimize(dim, BatchFitness(fitness), cfg);
  out.sizing = evaluator.sizing_from_unit(ga.best);
  out.perf = evaluator.evaluate(out.sizing);
  out.ok = out.perf.ok;
  return out;
}

}  // namespace eva::opt
