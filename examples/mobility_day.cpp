// Online serving over a working day: users commute between base stations
// (mobility churn) and their app mix drifts while the serving loop
// (src/serve/) drives the whole control plane each 15-minute slot —
// class-level diffing, warm-started re-solves, and the serverless DES with
// Algorithm 2 pre-warming.
//
// The point of the example: most slots need *no* re-solve at all. The
// class diff against the previous slot's demand tuples recognises slots
// where every tuple survived (kCarried) or only a few moved (kIncremental)
// and keeps the placement, falling back to the warm-started solver only on
// heavy shifts or the periodic schedule (kReplan). Watch the `recomp`
// column against `classes`.
#include <iostream>

#include "serve/serving_loop.h"
#include "util/table.h"

int main() {
  using namespace socl;

  serve::ServingConfig config;
  config.scenario.num_nodes = 12;
  config.scenario.num_users = 60;  // request templates
  config.scenario.constants.budget = 7000.0;
  // Dense enough that most (template, station) demand tuples stay occupied
  // across a mobility slot — that is what makes carried/incremental slots
  // possible. A sparse population (say 600 users over the 60×12 tuple
  // space) would vacate tuples every slot and force a re-solve each time.
  config.population = 6000;
  config.slots = 32;        // 8 hours at 15-minute slots
  config.slots_per_hour = 4;
  config.slot_horizon_s = 30.0;
  config.mobility.move_prob = 0.45;
  config.mobility.local_hop_prob = 0.75;
  config.drift_prob = 0.03;       // app-mix drift: ~3% switch template/slot
  config.diurnal_amplitude = 1.0; // morning ramp, lunch dip, evening peak
  config.full_replan_period = 8;  // scheduled re-solve every 2 hours
  config.arrivals.mean_rate = 0.02;
  config.seed = 7;

  std::cout << "simulating a working day: " << config.slots
            << " slots of 15 minutes, " << config.population
            << " commuting users (" << config.scenario.num_users
            << " request templates) on " << config.scenario.num_nodes
            << " stations\n\n";

  serve::ServingLoop loop(config);
  util::Table table({"slot", "mode", "classes", "recomp", "churn",
                     "requests", "slo", "cold_rate", "intensity",
                     "control_ms"});
  for (int s = 0; s < config.slots; ++s) {
    const serve::SlotReport slot = loop.step();
    table.row()
        .integer(slot.slot)
        .cell(serve::slot_mode_name(slot.mode))
        .integer(slot.classes)
        .integer(slot.classes_recomputed)
        .integer(slot.placement_churn)
        .integer(slot.requests_completed)
        .num(slot.slo_attainment, 4)
        .num(slot.cold_start_rate, 4)
        .num(slot.arrival_intensity, 3)
        .num(slot.control_s * 1e3, 1);
  }
  table.print(std::cout);

  const serve::ServingReport report = loop.run();  // accumulated state
  std::cout << "\nday summary: " << report.summary() << '\n'
            << "the loop re-solves only when demand tuples actually move: "
            << report.replans << " re-solves and " << report.incremental_slots
            << " incremental patches across " << config.slots
            << " slots; every other slot kept the previous placement "
               "(carried).\n";
  return 0;
}
