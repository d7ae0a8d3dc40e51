//===- tests/StoreChaosTest.cpp - Crash/corruption chaos harness ----------===//
//
// The robustness drill the durable store exists for: a forked child
// writing into a ProfileStore is killed with SIGKILL mid-add, its store
// files are then corrupted and truncated by hand, and reopening must
// quarantine exactly the damaged entries by name while every intact
// profile stays loadable.
//
//===----------------------------------------------------------------------===//

#include "aggregate/ProfileStore.h"
#include "compress/TraceIO.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <cstdint>
#include <filesystem>
#include <string>

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

using namespace kremlin;
using namespace kremlin::aggregate;
namespace fs = std::filesystem;

namespace {

/// A synthetic profile whose content varies with \p LeafWork.
DictionaryCompressor sampleProfile(uint64_t LeafWork) {
  DictionaryCompressor Dict;
  DynRegionSummary Leaf;
  Leaf.Static = 1;
  Leaf.Work = LeafWork;
  Leaf.Cp = LeafWork / 2 + 1;
  SummaryChar LeafChar = Dict.intern(Leaf);
  DynRegionSummary Main;
  Main.Static = 0;
  Main.Work = 3 * LeafWork;
  Main.Cp = 2 * LeafWork;
  Main.Children.emplace_back(LeafChar, 2);
  Dict.onRootExit(Dict.intern(Main));
  return Dict;
}

std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "/chaos_" + Tag + "_" +
                    std::to_string(::getpid());
  fs::remove_all(Dir);
  return Dir;
}

// --- The headline drill: SIGKILL mid-add, then hand-corruption. ---------

TEST(StoreChaos, SigkillMidIngestThenCorruptionQuarantinesByName) {
  std::string Dir = freshDir("kill9");
  const char *Names[] = {"alpha", "beta", "gamma"};
  int Ready[2];
  ASSERT_EQ(pipe(Ready), 0);

  // The child makes three durable named adds the crash must not lose,
  // reports them done, then rewrites "hammer" until it is killed: whatever
  // write was in progress dies with the process.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    close(Ready[0]);
    Expected<ProfileStore> Store = ProfileStore::open(Dir);
    if (!Store.ok())
      _exit(2);
    for (unsigned I = 0; I < 3; ++I)
      if (!Store.value().add(Names[I], sampleProfile(10 + I)).ok())
        _exit(3);
    if (write(Ready[1], "r", 1) != 1)
      _exit(4);
    for (uint64_t W = 100;; ++W)
      (void)Store.value().add("hammer", sampleProfile(W));
  }
  close(Ready[1]);
  char Byte = 0;
  bool ChildReady = read(Ready[0], &Byte, 1) == 1;
  close(Ready[0]);
  if (ChildReady)
    ::usleep(20 * 1000);
  ASSERT_EQ(kill(Pid, SIGKILL), 0);
  int WaitStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WaitStatus, 0), Pid);
  ASSERT_TRUE(ChildReady) << "child exited early, status " << WaitStatus;
  ASSERT_TRUE(WIFSIGNALED(WaitStatus));
  EXPECT_EQ(WTERMSIG(WaitStatus), SIGKILL);

  // Every acknowledged named add reached disk despite the SIGKILL.
  for (const char *Name : Names)
    ASSERT_TRUE(fs::exists(Dir + "/" + Name + ".prof")) << Name;

  // Now damage the survivors' store: clobber alpha's blob header (it no
  // longer decodes) and tear the index in half.
  std::string Blob;
  ASSERT_TRUE(readFileToString(Dir + "/alpha.prof", Blob));
  ASSERT_TRUE(writeStringToFile(Dir + "/alpha.prof",
                                "XXXX" + Blob.substr(4)));
  std::string Index;
  ASSERT_TRUE(readFileToString(Dir + "/index.json", Index));
  ASSERT_TRUE(
      writeStringToFile(Dir + "/index.json", Index.substr(0, Index.size() / 2)));

  // Recovery: the torn index and the mangled blob are quarantined *by
  // name*; beta and gamma are adopted back and stay loadable.
  Expected<ProfileStore> Store = ProfileStore::open(Dir);
  ASSERT_TRUE(Store.ok()) << Store.status().toString();
  const StoreRecovery &Rec = Store.value().recovery();
  EXPECT_TRUE(Rec.dirty());

  auto HasCasualty = [&Rec](const std::string &Name,
                            const std::string &ReasonPart) {
    for (const StoreRecovery::Casualty &Q : Rec.Quarantined)
      if (Q.Name == Name && Q.Reason.find(ReasonPart) != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(HasCasualty("index.json", "torn index")) << Rec.summary();
  EXPECT_TRUE(HasCasualty("alpha", "undecodable blob")) << Rec.summary();
  EXPECT_TRUE(fs::exists(Dir + "/quarantine/alpha.prof"));

  bool SawBeta = false, SawGamma = false;
  for (const StoreEntry &E : Store.value().entries()) {
    SawBeta |= E.Name == "beta";
    SawGamma |= E.Name == "gamma";
  }
  EXPECT_TRUE(SawBeta);
  EXPECT_TRUE(SawGamma);
  EXPECT_GE(Rec.Recovered, 2u); // beta + gamma adopted from the torn index.
  EXPECT_TRUE(Store.value().load("beta").ok());
  EXPECT_TRUE(Store.value().mergeAll().ok());

  // Recovery repaired the store on disk: a second open finds it clean.
  Expected<ProfileStore> Again = ProfileStore::open(Dir);
  ASSERT_TRUE(Again.ok());
  EXPECT_FALSE(Again.value().recovery().dirty())
      << Again.value().recovery().summary();
  fs::remove_all(Dir);
}

} // namespace
