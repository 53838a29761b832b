#include "city/city_metrics.h"

#include <utility>

#include "util/error.h"

namespace insomnia::city {

double NeighbourhoodOutcome::savings_fraction() const {
  const double base = baseline_user_energy + baseline_isp_energy;
  const double mine = scheme_user_energy + scheme_isp_energy;
  return base > 0.0 ? 1.0 - mine / base : 0.0;
}

void FleetTotals::add(const NeighbourhoodOutcome& outcome) {
  util::require(outcome.duration > 0.0, "neighbourhood day must have positive length");

  // Convert day energies to mean draws once, here, so every aggregate below
  // is a plain sum of watts.
  const double baseline_user = outcome.baseline_user_energy / outcome.duration;
  const double baseline_isp = outcome.baseline_isp_energy / outcome.duration;
  const double scheme_user = outcome.scheme_user_energy / outcome.duration;
  const double scheme_isp = outcome.scheme_isp_energy / outcome.duration;

  ++neighbourhoods;
  gateways += outcome.gateways;
  clients += outcome.clients;
  baseline_watts += baseline_user + baseline_isp;
  scheme_watts += scheme_user + scheme_isp;
  baseline_user_watts += baseline_user;
  baseline_isp_watts += baseline_isp;
  saved_user_watts += baseline_user - scheme_user;
  saved_isp_watts += baseline_isp - scheme_isp;
  peak_online_gateways += outcome.peak_online_gateways;
  wake_events += outcome.wake_events;
  savings.add(outcome.savings_fraction());
}

void FleetTotals::merge(const FleetTotals& other) {
  neighbourhoods += other.neighbourhoods;
  gateways += other.gateways;
  clients += other.clients;
  baseline_watts += other.baseline_watts;
  scheme_watts += other.scheme_watts;
  baseline_user_watts += other.baseline_user_watts;
  baseline_isp_watts += other.baseline_isp_watts;
  saved_user_watts += other.saved_user_watts;
  saved_isp_watts += other.saved_isp_watts;
  peak_online_gateways += other.peak_online_gateways;
  wake_events += other.wake_events;
  savings.merge(other.savings);
}

double FleetTotals::savings_fraction() const {
  return baseline_watts > 0.0 ? 1.0 - scheme_watts / baseline_watts : 0.0;
}

double FleetTotals::isp_share_of_savings() const {
  const double saved = saved_user_watts + saved_isp_watts;
  // Guard against a ~zero denominator (e.g. comparing no-sleep to itself):
  // the share is undefined there, report 0 rather than noise.
  if (saved <= baseline_watts * 1e-9) return 0.0;
  return saved_isp_watts / saved;
}

double FleetTotals::baseline_household_watts_per_gateway() const {
  return gateways > 0 ? baseline_user_watts / static_cast<double>(gateways) : 0.0;
}

double FleetTotals::baseline_isp_watts_per_gateway() const {
  return gateways > 0 ? baseline_isp_watts / static_cast<double>(gateways) : 0.0;
}

double FleetTotals::savings_ci95_halfwidth() const { return stats::ci95_halfwidth(savings); }

CityMetrics::CityMetrics(std::vector<std::string> preset_names) {
  per_preset_.reserve(preset_names.size());
  for (std::string& name : preset_names) {
    PresetAggregate aggregate;
    aggregate.preset = std::move(name);
    per_preset_.push_back(std::move(aggregate));
  }
}

void CityMetrics::add(const NeighbourhoodOutcome& outcome) {
  util::require(outcome.mix_index < per_preset_.size(),
                "outcome mix_index out of range for this city");
  totals_.add(outcome);
  per_preset_[outcome.mix_index].add(outcome);
}

}  // namespace insomnia::city
