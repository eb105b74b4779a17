#ifndef CQLOPT_TESTS_GENERATED_FLIGHTS_H_
#define CQLOPT_TESTS_GENERATED_FLIGHTS_H_

// The serving workload of the retract and replication gates
// (test_service, test_replica): the flights program of Examples 1.1/4.3
// over a generated 24-airport / 800-leg network (seed 42), queried with
// pred,qrp,mg, plus fixed-seed batches of fresh legs. Every input is
// seeded, so the counters the gates bound are deterministic.

#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "ast/parser.h"
#include "core/workload.h"
#include "service/query_service.h"

namespace cqlopt {

constexpr int kGeneratedAirports = 24;
constexpr int kGeneratedLegs = 800;
constexpr char kGeneratedFlightsQuery[] =
    "?- cheaporshort(a5, a9, Time, Cost).";
constexpr char kGeneratedFlightsSteps[] = "pred,qrp,mg";

/// A service over the flights program. The EDB is the generated network,
/// or empty for a follower that must learn everything by replication.
inline std::unique_ptr<QueryService> GeneratedFlightsService(
    ServiceOptions options = {}, bool empty_edb = false) {
  auto parsed = ParseProgram(
      "r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= 240.\n"
      "r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= 150.\n"
      "r3: flight(S, D, T, C) :- singleleg(S, D, T, C), C > 0, T > 0.\n"
      "r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), "
      "flight(D1, D, T2, C2), T = T1 + T2 + 30, C = C1 + C2.\n" +
      std::string(kGeneratedFlightsQuery) + "\n");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  if (!parsed.ok()) return nullptr;
  Database db;
  if (!empty_edb) {
    FlightNetworkSpec spec;
    spec.airports = kGeneratedAirports;
    spec.legs = kGeneratedLegs;
    spec.seed = 42;
    EXPECT_TRUE(AddFlightNetwork(parsed->program.symbols.get(), spec, &db)
                    .ok());
  }
  auto service = QueryService::FromParts(std::move(parsed->program),
                                         std::move(db), options);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(*service) : nullptr;
}

/// A batch of kGeneratedLegs/100 fresh legs drawn from the base network's
/// time/cost distribution (a typical feed update). `round` seeds the
/// generator so successive batches are distinct; legs go low → high
/// airport, preserving the network's acyclicity.
inline std::string GeneratedLegBatch(int round) {
  std::string text;
  std::mt19937_64 rng(9000 + static_cast<uint64_t>(round));
  for (int i = 0; i < kGeneratedLegs / 100; ++i) {
    int from = static_cast<int>(rng() % (kGeneratedAirports - 1));
    int to = from + 1 +
             static_cast<int>(rng() % static_cast<uint64_t>(
                                          kGeneratedAirports - 1 - from));
    int time = 30 + static_cast<int>(rng() % 570);
    int cost = 20 + static_cast<int>(rng() % 380);
    text += "singleleg(a" + std::to_string(from) + ", a" +
            std::to_string(to) + ", " + std::to_string(time) + ", " +
            std::to_string(cost) + ").\n";
  }
  return text;
}

}  // namespace cqlopt

#endif  // CQLOPT_TESTS_GENERATED_FLIGHTS_H_
