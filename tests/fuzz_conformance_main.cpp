// Differential conformance fuzzer driver (CI smoke + opt-in long runs).
//
// Default: 10,000 generated programs spread across all eight architecture
// profiles, exit 0 iff divergence-free. Knobs:
//
//   HWSEC_FUZZ_TRIALS / --trials N     trial count (long-run mode: crank it)
//   HWSEC_FUZZ_SEED   / --seed S       campaign seed (default 20260806)
//   HWSEC_FUZZ_WORKERS/ --workers W    worker threads (0 = hardware default)
//   --corpus-dir DIR                   write minimized failing cases here
//   --arch NAME                        restrict to one architecture profile
//   --inject-bug[=skip-domain-check|silent-zero|drop-dirty-bit]
//       self-test mode: deliberately mis-install machine-side enforcement
//       (or, for drop-dirty-bit, write DRAM behind the dirty bitmap's back),
//       and exit 0 only if the fuzzer catches it AND shrinks a reproducer
//       to <= 20 instructions. CI runs this to prove the oracle has teeth.
//       Runs 64 trials unless --trials is given (in either order).
#include <cstdio>
#include <cstring>
#include <string>

#include "conformance/corpus.h"
#include "conformance/fuzzer.h"

namespace conf = hwsec::conformance;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--trials N] [--seed S] [--workers W] [--corpus-dir DIR]\n"
               "          [--arch NAME]\n"
               "          [--inject-bug[=skip-domain-check|silent-zero|drop-dirty-bit]]\n",
               argv0);
  return 2;
}

void print_failures(const conf::FuzzReport& report) {
  for (const conf::FuzzFailure& f : report.failures) {
    std::printf("FAIL arch=%s seed=0x%llx shrunk-to=%zu instructions%s%s\n",
                conf::to_string(f.verdict.arch).c_str(),
                static_cast<unsigned long long>(f.verdict.seed), f.instructions,
                f.corpus_path.empty() ? "" : " corpus=",
                f.corpus_path.c_str());
    for (const std::string& m : f.verdict.mismatches) {
      std::printf("  %s\n", m.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  conf::FuzzConfig config;
  config.seed = 20260806;
  config.trials = 10000;
  bool self_test = false;
  bool trials_given = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--trials") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      config.trials = static_cast<std::size_t>(std::strtoull(n, nullptr, 10));
      trials_given = true;
    } else if (arg == "--seed") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      config.seed = std::strtoull(n, nullptr, 0);
    } else if (arg == "--workers") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      config.workers = static_cast<unsigned>(std::strtoul(n, nullptr, 10));
    } else if (arg == "--corpus-dir") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      config.corpus_dir = n;
    } else if (arg == "--arch") {
      const char* n = next();
      if (n == nullptr) return usage(argv[0]);
      config.archs = {conf::fuzz_arch_from_string(n)};
    } else if (arg == "--inject-bug" || arg.rfind("--inject-bug=", 0) == 0) {
      self_test = true;
      const std::string which =
          arg == "--inject-bug" ? "skip-domain-check" : arg.substr(std::strlen("--inject-bug="));
      if (which == "skip-domain-check") {
        config.inject = conf::BugInjection::kSkipDomainCheck;
      } else if (which == "silent-zero") {
        config.inject = conf::BugInjection::kSilentZero;
      } else if (which == "drop-dirty-bit") {
        config.inject = conf::BugInjection::kDropDirtyBit;
      } else {
        return usage(argv[0]);
      }
    } else {
      return usage(argv[0]);
    }
  }
  if (self_test && !trials_given) {
    config.trials = 64;  // one injected bug fires on nearly every trial.
  }
  config = conf::fuzz_config_from_env(config);

  const conf::FuzzReport report = conf::run_fuzz(config);
  print_failures(report);
  std::printf("conformance fuzz: %zu trials, %zu divergences, %zu secret leaks\n", report.trials,
              report.divergences, report.secret_leaks);

  if (self_test) {
    if (report.divergences == 0) {
      std::printf("SELF-TEST FAILED: injected bug was not detected\n");
      return 1;
    }
    for (const conf::FuzzFailure& f : report.failures) {
      if (f.instructions <= 20) {
        std::printf("self-test ok: injected bug caught and shrunk to %zu instructions\n",
                    f.instructions);
        return 0;
      }
    }
    std::printf("SELF-TEST FAILED: no failure shrank below 20 instructions\n");
    return 1;
  }
  return report.ok() ? 0 : 1;
}
