//===- support/FaultInjection.cpp -----------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Prng.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <cstdlib>
#include <mutex>
#include <vector>

using namespace kremlin;

std::atomic<bool> fault::detail::Active{false};

namespace {

struct FaultConfig {
  /// Per-site failure probability; < 0 means the site is inactive.
  double SiteP[5] = {-1.0, -1.0, -1.0, -1.0, -1.0};
  std::vector<std::string> FailStages;
  uint64_t Seed = 0;
  std::string Spec;
};

std::mutex ConfigMutex;
FaultConfig Config; // Guarded by ConfigMutex.
/// Global draw index: probabilistic sites consume one slot each, giving a
/// seed-determined fire/no-fire sequence.
std::atomic<uint64_t> Draws{0};

/// Parses one `site[:prob]` token into \p Out. Returns false on nonsense.
bool parseToken(std::string_view Tok, FaultConfig &Out) {
  auto ParseProb = [](std::string_view Text, double &P) {
    if (Text.empty())
      return false;
    char *End = nullptr;
    std::string Buf(Text);
    P = std::strtod(Buf.c_str(), &End);
    return End && *End == '\0' && P >= 0.0 && P <= 1.0;
  };

  size_t Colon = Tok.find(':');
  std::string_view Name = Tok.substr(0, Colon);
  std::string_view Rest =
      Colon == std::string_view::npos ? std::string_view() : Tok.substr(Colon + 1);

  if (Name == "stage") {
    if (Rest.empty())
      return false;
    Out.FailStages.emplace_back(Rest);
    return true;
  }

  fault::Site S;
  if (Name == "alloc")
    S = fault::Site::Alloc;
  else if (Name == "trace_corrupt")
    S = fault::Site::TraceCorrupt;
  else if (Name == "bench_throw")
    S = fault::Site::BenchThrow;
  else if (Name == "ingest")
    S = fault::Site::Ingest;
  else if (Name == "store_write")
    S = fault::Site::StoreWrite;
  else
    return false;

  double P = 1.0; // A bare site name means "always fire".
  if (Colon != std::string_view::npos && !ParseProb(Rest, P))
    return false;
  Out.SiteP[static_cast<unsigned>(S)] = P;
  return true;
}

bool applySpec(std::string_view Spec, uint64_t Seed) {
  FaultConfig New;
  New.Seed = Seed;
  New.Spec = Spec;
  bool Ok = true;
  for (const std::string &Tok : splitString(Spec, ',')) {
    std::string_view Trimmed = trimString(Tok);
    if (Trimmed.empty())
      continue;
    if (!parseToken(Trimmed, New)) {
      telemetry::logf(telemetry::LogLevel::Warn, "fault",
                      "ignoring malformed KREMLIN_FAULT token '%.*s'",
                      static_cast<int>(Trimmed.size()), Trimmed.data());
      Ok = false;
    }
  }
  bool AnyActive = !New.FailStages.empty();
  for (double P : New.SiteP)
    AnyActive |= P >= 0.0;

  std::lock_guard<std::mutex> Lock(ConfigMutex);
  Config = Ok && AnyActive ? std::move(New) : FaultConfig();
  Draws.store(0, std::memory_order_relaxed);
  fault::detail::Active.store(Ok && AnyActive, std::memory_order_relaxed);
  return Ok;
}

} // namespace

void fault::detail::initFromEnvOnce() {
  static std::once_flag Once;
  std::call_once(Once, [] {
    const char *Spec = std::getenv("KREMLIN_FAULT");
    if (!Spec || !*Spec)
      return;
    const char *SeedStr = std::getenv("KREMLIN_FAULT_SEED");
    uint64_t Seed = SeedStr ? std::strtoull(SeedStr, nullptr, 10) : 0;
    applySpec(Spec, Seed);
    telemetry::logf(telemetry::LogLevel::Warn, "fault",
                    "fault injection active: KREMLIN_FAULT=%s (seed %llu)",
                    Spec, static_cast<unsigned long long>(Seed));
  });
}

bool fault::shouldFail(Site S) {
  if (!enabled())
    return false;
  double P;
  uint64_t Seed;
  {
    std::lock_guard<std::mutex> Lock(ConfigMutex);
    P = Config.SiteP[static_cast<unsigned>(S)];
    Seed = Config.Seed;
  }
  if (P < 0.0)
    return false;
  if (P >= 1.0) {
    telemetry::Registry::global().counter("fault.injected").add();
    return true;
  }
  // One PRNG per draw index keeps the sequence independent of which sites
  // interleave: draw N fires iff splitmix(seed, N) < P.
  uint64_t N = Draws.fetch_add(1, std::memory_order_relaxed);
  Prng R(Seed ^ (N * 0x9e3779b97f4a7c15ULL + 1));
  bool Fail = R.nextBool(P);
  if (Fail)
    telemetry::Registry::global().counter("fault.injected").add();
  return Fail;
}

bool fault::stageShouldFail(std::string_view Stage) {
  if (!enabled())
    return false;
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  for (const std::string &Name : Config.FailStages)
    if (Name == Stage) {
      telemetry::Registry::global().counter("fault.injected").add();
      return true;
    }
  return false;
}

bool fault::configure(std::string_view Spec, uint64_t Seed) {
  detail::initFromEnvOnce(); // Consume the env var so it can't resurrect later.
  if (trimString(Spec).empty()) {
    reset();
    return true;
  }
  return applySpec(Spec, Seed);
}

void fault::reset() {
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  Config = FaultConfig();
  detail::Active.store(false, std::memory_order_relaxed);
}

std::string fault::activeSpec() {
  if (!enabled())
    return "";
  std::lock_guard<std::mutex> Lock(ConfigMutex);
  return Config.Spec;
}
