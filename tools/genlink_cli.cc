// genlink - command-line interface to the library.
//
//   genlink learn   learn a linkage rule from labelled reference links
//   genlink match   one-shot link generation over two datasets
//   genlink index   precompute a corpus into a mmap-able v2 index artifact
//   genlink query   serve queries against a prebuilt matcher index
//   genlink serve   HTTP daemon over a prebuilt matcher index
//   genlink apply   stream a delta CSV through a live corpus
//   genlink eval    score a rule against reference links
//   genlink gen     emit a synthetic matching corpus at configurable scale
//   genlink --version / genlink <command> --help
//
// Error and signal discipline: every failure exits 2 with a Status
// naming the flag/file that caused it; SIGINT/SIGTERM interrupt the
// long-running commands cooperatively (learn finishes the current
// generation, match/query/gen flush partial output), report what was
// kept, and exit 128+signal. `serve` instead drains gracefully and
// exits 0 (docs/SERVING.md).
//
// Datasets are CSV (first row = property names; use --id-column to name
// the id column) or N-Triples (*.nt). Reference links are CSV
// (id_a,id_b[,label]) or owl:sameAs N-Triples. Rules are stored in the
// Silk-style XML format (rule/xml.h); .rule files with s-expressions
// are also accepted. Learned rules deploy as versioned artifacts
// (io/artifact.h: rule + match options) via `learn --save-artifact`,
// which `query` loads to serve entities read from stdin or a CSV file
// — the build-once / query-many path of api/matcher_index.h.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/matcher_index.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "datasets/synthetic.h"
#include "eval/link_metrics.h"
#include "gp/genlink.h"
#include "io/artifact.h"
#include "io/corpus_artifact.h"
#include "io/csv.h"
#include "io/link_io.h"
#include "io/ntriples.h"
#include "live/delta_csv.h"
#include "live/live_corpus.h"
#include "matcher/matcher.h"
#include "rule/parse.h"
#include "rule/serialize.h"
#include "rule/xml.h"
#include "serve/server.h"
#include "serve/serving_state.h"

// Kept in sync with the CMake project version by tools/CMakeLists.txt.
#ifndef GENLINK_VERSION
#define GENLINK_VERSION "0.0.0-dev"
#endif

namespace genlink {
namespace {

/// ---- SIGINT/SIGTERM: cooperative interruption. The handler only
/// performs async-signal-safe work — relaxed atomic stores and one
/// write() to the serve daemon's self-pipe. Each command polls the
/// flag (or threads g_cancel through the library's cancellation
/// points), flushes partial output, and exits 128+signal; `serve`
/// drains instead and exits 0.
std::atomic<bool> g_interrupted{false};
std::atomic<int> g_signal{0};
std::atomic<int> g_serve_shutdown_fd{-1};
CancelToken g_cancel;

void HandleSignal(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  g_interrupted.store(true, std::memory_order_relaxed);
  g_cancel.RequestCancel();
  const int fd = g_serve_shutdown_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

void InstallSignalHandlers() {
  struct sigaction action = {};
  action.sa_handler = HandleSignal;
  ::sigemptyset(&action.sa_mask);
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

/// The CLI's exit code after an interrupt (128+signal, shell style).
int InterruptExitCode() {
  return 128 + g_signal.load(std::memory_order_relaxed);
}

const char* SignalName() {
  return g_signal.load(std::memory_order_relaxed) == SIGTERM ? "SIGTERM"
                                                             : "SIGINT";
}

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second.c_str();
  }
  bool Has(const std::string& key) const { return options.count(key) > 0; }
};

/// One flag of a subcommand. `value_name` null means a boolean flag
/// (present/absent, no value argument).
struct FlagSpec {
  const char* name;
  const char* value_name;
  const char* help;
  bool required = false;
};

struct CommandSpec {
  const char* name;
  const char* summary;
  std::vector<FlagSpec> flags;
  /// Free-form paragraph printed at the end of --help (may be null).
  const char* notes;
};

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"learn",
       "learn a linkage rule from labelled reference links (GenLink)",
       {
           {"source", "FILE", "source dataset (.csv or .nt)", true},
           {"target", "FILE", "target dataset (.csv or .nt)", true},
           {"links", "FILE", "reference links (.csv or owl:sameAs .nt)", true},
           {"out", "FILE", "write the learned rule as XML (default: stdout)"},
           {"save-artifact", "FILE",
            "also write a deployment artifact (rule + match options) "
            "that `genlink query --artifact` serves"},
           {"population", "N", "population size (default 500)"},
           {"iterations", "N", "maximum iterations (default 50)"},
           {"seed", "N", "random seed (default 42)"},
           {"threads", "N", "worker threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column (default 'id')"},
           {"match", "FILE",
            "after learning, link the FULL datasets with the learned rule "
            "and write them (.nt = owl:sameAs, else CSV with scores)"},
           {"match-threshold", "T",
            "similarity threshold for --match and --save-artifact "
            "(default 0.5)"},
       },
       nullptr},
      {"match",
       "one-shot link generation: execute a rule over two datasets",
       {
           {"source", "FILE", "source dataset (.csv or .nt)", true},
           {"target", "FILE", "target dataset (.csv or .nt)", true},
           {"rule", "FILE", "linkage rule (.xml or s-expression .rule)", true},
           {"out", "FILE", "write links CSV (default: stdout)"},
           {"threshold", "T", "minimum similarity (default 0.5)"},
           {"best-match", nullptr,
            "keep only the best target per source entity (ties: highest "
            "score, then smallest id)"},
           {"threads", "N", "worker threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column (default 'id')"},
           {"blocking-top-tokens", "K",
            "weighted blocking: index each target entity under only its K "
            "rarest tokens (0 = all tokens, default)"},
           {"blocking-min-df", "N",
            "skip blocking tokens seen in fewer than N target entities "
            "(default 1 = keep all)"},
       },
       "match rebuilds the execution artifacts on every invocation; for\n"
       "repeated matching against the same corpus use `genlink query`"},
      {"index",
       "precompute a corpus into a zero-copy v2 index artifact "
       "(mmap-able, crash-safe write)",
       {
           {"target", "FILE", "corpus dataset to index (.csv or .nt)", true},
           {"out", "FILE", "write the corpus index artifact", true},
           {"artifact", "FILE",
            "deployment artifact from `learn --save-artifact` whose rule "
            "and options define the precomputed plans"},
           {"rule", "FILE",
            "bare rule (.xml or .rule) with default options instead of "
            "--artifact"},
           {"threads", "N", "plan-evaluation threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column (default 'id')"},
           {"blocking-top-tokens", "K",
            "weighted blocking: index each corpus entity under only its K "
            "rarest tokens (0 = all tokens, default)"},
           {"blocking-min-df", "N",
            "skip blocking tokens seen in fewer than N corpus entities "
            "(default 1 = keep all)"},
       },
       "index precomputes the rule's target-side value plans and the\n"
       "token-blocking postings into one flat binary file that `query\n"
       "--index` and `serve --index` mmap for millisecond cold starts\n"
       "(docs/ARTIFACTS.md). The file is written atomically: a crash\n"
       "mid-write never clobbers an existing artifact. Pass exactly one\n"
       "of --artifact or --rule. The blocking flags are baked into the\n"
       "file: `query --index` and `serve --index` serve the knobs it was\n"
       "indexed with."},
      {"query",
       "serve entity queries against a prebuilt matcher index",
       {
           {"target", "FILE", "indexed corpus dataset (.csv or .nt)"},
           {"index", "FILE",
            "mmap a v2 corpus artifact from `genlink index` instead of "
            "--target (zero-copy cold start)"},
           {"artifact", "FILE",
            "deployment artifact from `learn --save-artifact` (rule + "
            "options)"},
           {"rule", "FILE",
            "bare rule (.xml or .rule) with default options instead of "
            "--artifact"},
           {"entities", "FILE",
            "query entities as CSV with a header row (default: stdin)"},
           {"out", "FILE", "write links CSV (default: stdout, streamed)"},
           {"threshold", "T", "override the artifact's threshold"},
           {"best-match", nullptr, "keep only the best link per query"},
           {"threads", "N", "worker threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column (default 'id')"},
           {"blocking-top-tokens", "K",
            "with --target: index each corpus entity under only its K "
            "rarest tokens (0 = all tokens, default); an --index serves "
            "the knobs it was built with"},
           {"blocking-min-df", "N",
            "with --target: skip blocking tokens seen in fewer than N "
            "corpus entities (default 1 = keep all)"},
       },
       "query builds the index once (token blocking + compiled value\n"
       "store, api/matcher_index.h), then answers each input entity with\n"
       "its matching corpus entities, streaming one CSV row per link as\n"
       "queries arrive. Pass exactly one of --artifact or --rule, and\n"
       "exactly one of --target (parse + build) or --index (mmap a\n"
       "precomputed `genlink index` artifact, docs/ARTIFACTS.md)."},
      {"serve",
       "HTTP daemon over a prebuilt matcher index (deadlines, admission "
       "control, hot reload)",
       {
           {"target", "FILE", "indexed corpus dataset (.csv or .nt)"},
           {"index", "FILE",
            "mmap a v2 corpus artifact from `genlink index` instead of "
            "--target (zero-copy cold start)"},
           {"artifact", "FILE",
            "deployment artifact from `learn --save-artifact`; also the "
            "file POST /reload re-reads", true},
           {"port", "N",
            "TCP port on 127.0.0.1 (default 0 = ephemeral; the bound port "
            "is printed and written to --port-file)"},
           {"port-file", "FILE",
            "write the bound port as a decimal string (for scripts)"},
           {"workers", "N", "connection handler threads (default 2)"},
           {"max-queue", "N",
            "accepted connections waiting for a worker before new ones "
            "are shed with 503 (default 16)"},
           {"request-deadline-ms", "N",
            "per-request processing budget; exceeded => 504 (default 2000)"},
           {"read-timeout-ms", "N",
            "budget for a request's bytes to arrive; stalled => 408 "
            "(default 5000)"},
           {"drain-deadline-ms", "N",
            "after SIGTERM, budget to finish in-flight requests "
            "(default 5000)"},
           {"threads", "N", "matcher worker threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column of query bodies (default 'id')"},
           {"live", nullptr,
            "serve a mutable live corpus: POST /upsert, /delete and "
            "/compact mutate it between queries (docs/STREAMING.md)"},
           {"compact-threshold", "N",
            "with --live: auto-compact once the delta log holds N "
            "entries (default 0 = manual /compact only)"},
       },
       "serve answers GET /healthz, GET /varz, POST /match (CSV entities\n"
       "in, links CSV out) and POST /reload on 127.0.0.1; with --live\n"
       "also POST /upsert, /delete and /compact. Overloaded connections\n"
       "get an immediate 503 + Retry-After; SIGTERM drains in-flight\n"
       "requests and exits 0. Pass exactly one of --target or --index.\n"
       "See docs/SERVING.md."},
      {"apply",
       "stream a delta CSV (upserts/deletes) through a live corpus",
       {
           {"target", "FILE", "base corpus dataset (.csv or .nt)"},
           {"index", "FILE",
            "mmap a v2 corpus artifact from `genlink index` instead of "
            "--target (upserts/deletes work; compaction and --verify "
            "need --target)"},
           {"artifact", "FILE",
            "deployment artifact from `learn --save-artifact` (rule + "
            "options)"},
           {"rule", "FILE",
            "bare rule (.xml or .rule) with default options instead of "
            "--artifact"},
           {"deltas", "FILE",
            "delta CSV from `gen --out-deltas` (header op,id,<props>)", true},
           {"batch-size", "N",
            "ops per ApplyBatch epoch (default 256; each batch publishes "
            "one snapshot)"},
           {"compact-every", "N",
            "run a compaction after every N batches (default 0 = never)"},
           {"compact-threshold", "N",
            "auto-compact once the delta log holds N entries (default 0 "
            "= manual)"},
           {"out-index", "FILE",
            "after the stream, compact and persist the final corpus as a "
            "v2 index artifact (crash-safe write)"},
           {"verify", nullptr,
            "after the stream, rebuild a fresh index over the logical "
            "corpus and check the mutated index answers bit-identically"},
           {"threshold", "T", "override the artifact's threshold"},
           {"best-match", nullptr, "keep only the best link per query"},
           {"threads", "N", "worker threads, 0 = hardware (default 0)"},
           {"id-column", "NAME", "CSV id column (default 'id')"},
       },
       "apply feeds the delta stream through the same LiveCorpus layer\n"
       "`serve --live` uses: batches publish epoch snapshots, deletes\n"
       "tombstone, compactions fold base+delta into a fresh base. Pass\n"
       "exactly one of --target or --index and exactly one of --artifact\n"
       "or --rule. --verify proves the streamed index bit-identical to a\n"
       "cold rebuild of the final corpus (docs/STREAMING.md)."},
      {"gen",
       "emit a synthetic matching corpus at configurable scale",
       {
           {"out-source", "FILE", "write the clean source side as CSV", true},
           {"out-target", "FILE", "write the noisy target side as CSV", true},
           {"out-links", "FILE", "write ground-truth links CSV", true},
           {"entities", "N", "records per side (default 10000)"},
           {"duplicate-rate", "P",
            "probability a target record is a perturbed duplicate of its "
            "source counterpart (default 0.35)"},
           {"confusable-rate", "P",
            "probability a non-duplicate shares address, city and surname "
            "(a hard negative; default 0.1)"},
           {"typo-rate", "P",
            "per-text-property typo probability in duplicates (default 0.3)"},
           {"missing-rate", "P",
            "per-property missing-value probability in duplicates "
            "(default 0.05)"},
           {"seed", "N", "random seed (default 11)"},
           {"threads", "N",
            "generation threads, 0 = hardware (default 0); output is "
            "byte-identical for any value"},
           {"deltas", "N",
            "also emit N streaming mutations (updates/deletes/new "
            "records) against the target side (default 0)"},
           {"out-deltas", "FILE",
            "write the delta stream as delta CSV (required with --deltas; "
            "feeds `genlink apply --deltas`)"},
           {"delta-delete-rate", "P",
            "probability a delta removes a live entity (default 0.2)"},
           {"delta-new-rate", "P",
            "probability an upsert introduces a new entity instead of "
            "rewriting one (default 0.25)"},
           {"delta-seed", "N", "delta stream seed (default 29)"},
       },
       "gen writes a person-directory corpus (name, address, city, phone,\n"
       "birth year) whose target side perturbs duplicates with typos,\n"
       "abbreviations, case noise, phone reformatting and missing fields\n"
       "(src/datasets/synthetic.h). Same seed => byte-identical output for\n"
       "any --threads value. The three files feed `genlink learn`,\n"
       "`match` and `eval` directly; --deltas adds a deterministic\n"
       "update/delete stream for `genlink apply` and `serve --live`."},
      {"eval",
       "evaluate a rule's generated links against reference links",
       {
           {"source", "FILE", "source dataset (.csv or .nt)", true},
           {"target", "FILE", "target dataset (.csv or .nt)", true},
           {"rule", "FILE", "linkage rule (.xml or s-expression .rule)", true},
           {"links", "FILE", "reference links (.csv or owl:sameAs .nt)", true},
           {"id-column", "NAME", "CSV id column (default 'id')"},
       },
       nullptr},
  };
  return kCommands;
}

const CommandSpec* FindCommand(std::string_view name) {
  for (const CommandSpec& command : Commands()) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

void PrintCommandHelp(const CommandSpec& spec, std::FILE* out) {
  std::fprintf(out, "usage: genlink %s", spec.name);
  for (const FlagSpec& flag : spec.flags) {
    if (flag.required) std::fprintf(out, " --%s %s", flag.name, flag.value_name);
  }
  std::fprintf(out, " [options]\n\n%s\n\noptions:\n", spec.summary);
  for (const FlagSpec& flag : spec.flags) {
    std::string left = std::string("--") + flag.name;
    if (flag.value_name != nullptr) left += std::string(" ") + flag.value_name;
    std::fprintf(out, "  %-22s %s%s\n", left.c_str(), flag.help,
                 flag.required ? "  [required]" : "");
  }
  std::fprintf(out,
               "\ndatasets: .csv (header row = properties) or .nt (N-Triples)\n"
               "links:    .csv (id_a,id_b[,label]) or .nt (owl:sameAs)\n");
  if (spec.notes != nullptr) std::fprintf(out, "\n%s\n", spec.notes);
}

void PrintTopHelp(std::FILE* out) {
  std::fprintf(out,
               "usage: genlink <command> [options]\n"
               "       genlink <command> --help\n"
               "       genlink --version\n\ncommands:\n");
  for (const CommandSpec& command : Commands()) {
    std::fprintf(out, "  %-7s %s\n", command.name, command.summary);
  }
}

/// Parses argv[2..] against the command's flag table into `args`.
/// Returns -1 to continue, otherwise the process exit code (0 for
/// --help, 2 for a flag error). Errors name the offending flag.
int ParseFlags(const CommandSpec& spec, int argc, char** argv, Args& args) {
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintCommandHelp(spec, stdout);
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "genlink %s: unexpected argument '%s'\n"
                   "(run 'genlink %s --help' for usage)\n",
                   spec.name, argv[i], spec.name);
      return 2;
    }
    const std::string key(arg.substr(2));
    const FlagSpec* flag = nullptr;
    for (const FlagSpec& candidate : spec.flags) {
      if (key == candidate.name) {
        flag = &candidate;
        break;
      }
    }
    if (flag == nullptr) {
      std::fprintf(stderr,
                   "genlink %s: unknown flag '--%s'\n"
                   "(run 'genlink %s --help' for usage)\n",
                   spec.name, key.c_str(), spec.name);
      return 2;
    }
    if (flag->value_name != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "genlink %s: flag '--%s' expects a value (%s)\n",
                     spec.name, key.c_str(), flag->value_name);
        return 2;
      }
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";
    }
  }
  for (const FlagSpec& flag : spec.flags) {
    if (flag.required && !args.Has(flag.name)) {
      std::fprintf(stderr,
                   "genlink %s: missing required flag '--%s'\n"
                   "(run 'genlink %s --help' for usage)\n",
                   spec.name, flag.name, spec.name);
      return 2;
    }
  }
  return -1;
}

Result<Dataset> LoadDataset(const std::string& path, const char* id_column,
                            std::string name) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  if (EndsWith(path, ".nt")) {
    return ReadNTriplesDataset(*content, std::move(name));
  }
  CsvDatasetOptions options;
  if (id_column != nullptr) options.id_column = id_column;
  return ReadCsvDataset(*content, std::move(name), options);
}

Result<ReferenceLinkSet> LoadLinks(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  if (EndsWith(path, ".nt")) return ReadSameAsLinks(*content);
  return ReadLinksCsv(*content);
}

Result<LinkageRule> LoadRule(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  if (EndsWith(path, ".xml")) return ParseRuleXml(*content);
  return ParseRule(*content);
}

/// Every subcommand failure exits 2 — the same code as a flag parse
/// error, so scripts can distinguish "bad invocation or input" (2)
/// from an interrupt (128+signal).
int Fail(const Status& status) {
  std::fprintf(stderr, "genlink: error: %s\n", status.ToString().c_str());
  return 2;
}

/// Fail naming the flag and file the status came from:
///   genlink match: --rule bad.xml: ParseError: ...
int FailFlagFile(const char* command, const char* flag, const char* path,
                 const Status& status) {
  std::fprintf(stderr, "genlink %s: --%s %s: %s\n", command, flag, path,
               status.ToString().c_str());
  return 2;
}

/// Parses an optional numeric flag. Returns false (after an error
/// naming the flag, CLI exit code 2) when the value is present but
/// is not a finite number — malformed numbers must never silently fall
/// back to the default, and `nan` or `inf` must never silently match
/// nothing.
bool FlagAsDouble(const Args& args, const char* command, const char* name,
                  double* out) {
  const char* raw = args.Get(name);
  if (raw == nullptr) return true;
  double value = 0.0;
  if (ParseDouble(raw, &value) && std::isfinite(value)) {
    *out = value;
    return true;
  }
  std::fprintf(stderr,
               "genlink %s: flag '--%s' expects a finite number, got '%s'\n",
               command, name, raw);
  return false;
}

/// Same for non-negative integer flags, with a lower bound.
bool FlagAsCount(const Args& args, const char* command, const char* name,
                 int64_t min_value, size_t* out) {
  const char* raw = args.Get(name);
  if (raw == nullptr) return true;
  int64_t value = 0;
  if (ParseInt64(raw, &value) && value >= min_value) {
    *out = static_cast<size_t>(value);
    return true;
  }
  std::fprintf(stderr,
               "genlink %s: flag '--%s' expects an integer >= %lld, got '%s'\n",
               command, name, static_cast<long long>(min_value), raw);
  return false;
}

int RunLearn(const Args& args) {
  // Validate every numeric flag before touching the filesystem, so a
  // typo fails fast with exit 2.
  GenLinkConfig config;
  size_t seed_value = 42;
  MatchOptions match_options;
  if (!FlagAsCount(args, "learn", "population", 1, &config.population_size) ||
      !FlagAsCount(args, "learn", "iterations", 1, &config.max_iterations) ||
      !FlagAsCount(args, "learn", "threads", 0, &config.num_threads) ||
      !FlagAsCount(args, "learn", "seed", 0, &seed_value) ||
      !FlagAsDouble(args, "learn", "match-threshold",
                    &match_options.threshold)) {
    return 2;
  }
  const uint64_t seed = seed_value;
  match_options.num_threads = config.num_threads;
  // SIGINT/SIGTERM stop learning at the next generation boundary; the
  // best rule so far is still written below.
  config.stop_requested = &g_interrupted;

  auto a = LoadDataset(args.Get("source"), args.Get("id-column", "id"), "source");
  if (!a.ok()) {
    return FailFlagFile("learn", "source", args.Get("source"), a.status());
  }
  auto b = LoadDataset(args.Get("target"), args.Get("id-column", "id"), "target");
  if (!b.ok()) {
    return FailFlagFile("learn", "target", args.Get("target"), b.status());
  }
  auto links = LoadLinks(args.Get("links"));
  if (!links.ok()) {
    return FailFlagFile("learn", "links", args.Get("links"), links.status());
  }

  if (links->negatives().empty()) {
    std::fprintf(stderr,
                 "note: no negative links supplied; generating %zu negatives "
                 "with the permutation scheme\n",
                 links->positives().size());
    Rng neg_rng(1);
    links->GenerateNegativesFromPositives(neg_rng);
  }

  Rng rng(seed);
  auto folds = links->SplitFolds(2, rng);
  GenLink learner(*a, *b, config);
  auto result = learner.Learn(folds[0], &folds[1], rng);
  if (!result.ok()) return Fail(result.status());

  const IterationStats& final_stats = result->trajectory.iterations.back();
  if (result->interrupted) {
    std::fprintf(stderr,
                 "interrupted by %s after %zu iterations; writing the best "
                 "rule so far\n",
                 SignalName(), final_stats.iteration);
  }
  std::fprintf(stderr,
               "learned in %zu iterations (%.1fs): train F1 %.3f, val F1 %.3f\n",
               final_stats.iteration, final_stats.seconds, final_stats.train_f1,
               final_stats.val_f1);

  std::string xml = ToXml(result->best_rule);
  const char* out = args.Get("out");
  if (out != nullptr) {
    Status status = WriteStringToFile(out, xml);
    if (!status.ok()) return FailFlagFile("learn", "out", out, status);
    std::fprintf(stderr, "rule written to %s\n", out);
  } else {
    std::fputs(xml.c_str(), stdout);
    std::fflush(stdout);
  }

  // learn --save-artifact: bundle the learned rule with the options it
  // should be served under, for `genlink query --artifact`.
  const char* artifact_out = args.Get("save-artifact");
  if (artifact_out != nullptr) {
    RuleArtifact artifact;
    artifact.name = "genlink-learn";
    artifact.rule = result->best_rule.Clone();
    artifact.options = match_options;
    Status status = SaveArtifact(artifact_out, artifact);
    if (!status.ok()) {
      return FailFlagFile("learn", "save-artifact", artifact_out, status);
    }
    std::fprintf(stderr, "artifact written to %s\n", artifact_out);
  }

  // learn --match: end-to-end linking. The learned rule is executed over
  // the FULL datasets (not just the labelled pairs) through the
  // value-store matcher path and the links are written out.
  const char* match_out = args.Get("match");
  if (match_out != nullptr && !g_interrupted.load(std::memory_order_relaxed)) {
    auto generated = GenerateLinks(result->best_rule, *a, *b, match_options);
    std::string serialized = EndsWith(match_out, ".nt")
                                 ? WriteGeneratedLinksNt(generated)
                                 : WriteGeneratedLinksCsv(generated);
    Status status = WriteStringToFile(match_out, serialized);
    if (!status.ok()) return FailFlagFile("learn", "match", match_out, status);
    std::fprintf(stderr, "matched full datasets: %zu links written to %s\n",
                 generated.size(), match_out);
  }
  return result->interrupted ? InterruptExitCode() : 0;
}

int RunMatch(const Args& args) {
  MatchOptions options;
  options.best_match_only = args.Has("best-match");
  if (!FlagAsDouble(args, "match", "threshold", &options.threshold) ||
      !FlagAsCount(args, "match", "threads", 0, &options.num_threads) ||
      !FlagAsCount(args, "match", "blocking-top-tokens", 0,
                   &options.blocking_max_tokens) ||
      !FlagAsCount(args, "match", "blocking-min-df", 1,
                   &options.blocking_min_token_df)) {
    return 2;
  }

  auto a = LoadDataset(args.Get("source"), args.Get("id-column", "id"), "source");
  if (!a.ok()) {
    return FailFlagFile("match", "source", args.Get("source"), a.status());
  }
  auto b = LoadDataset(args.Get("target"), args.Get("id-column", "id"), "target");
  if (!b.ok()) {
    return FailFlagFile("match", "target", args.Get("target"), b.status());
  }
  auto rule = LoadRule(args.Get("rule"));
  if (!rule.ok()) {
    return FailFlagFile("match", "rule", args.Get("rule"), rule.status());
  }

  // SIGINT/SIGTERM cancel the join between entities; the links scored
  // so far are still flushed below, marked as partial on stderr.
  options.cancel = &g_cancel;
  auto links = GenerateLinks(*rule, *a, *b, options);
  const bool interrupted = g_interrupted.load(std::memory_order_relaxed);
  std::fprintf(stderr, "generated %zu links%s\n", links.size(),
               interrupted ? " (PARTIAL: interrupted)" : "");

  std::string csv = WriteGeneratedLinksCsv(links);
  const char* out = args.Get("out");
  if (out != nullptr) {
    Status status = WriteStringToFile(out, csv);
    if (!status.ok()) return FailFlagFile("match", "out", out, status);
  } else {
    std::fputs(csv.c_str(), stdout);
    std::fflush(stdout);
  }
  if (interrupted) {
    std::fprintf(stderr, "interrupted by %s; partial links written\n",
                 SignalName());
    return InterruptExitCode();
  }
  return 0;
}

int RunIndex(const Args& args) {
  const char* artifact_path = args.Get("artifact");
  const char* rule_path = args.Get("rule");
  if ((artifact_path == nullptr) == (rule_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink index: pass exactly one of --artifact or --rule\n"
                 "(run 'genlink index --help' for usage)\n");
    return 2;
  }
  size_t threads = 0;
  size_t top_tokens = 0;
  size_t min_df = 1;
  if (!FlagAsCount(args, "index", "threads", 0, &threads) ||
      !FlagAsCount(args, "index", "blocking-top-tokens", 0, &top_tokens) ||
      !FlagAsCount(args, "index", "blocking-min-df", 1, &min_df)) {
    return 2;
  }

  auto target =
      LoadDataset(args.Get("target"), args.Get("id-column", "id"), "target");
  if (!target.ok()) {
    return FailFlagFile("index", "target", args.Get("target"), target.status());
  }

  RuleArtifact artifact;
  if (artifact_path != nullptr) {
    auto loaded = LoadArtifact(artifact_path);
    if (!loaded.ok()) {
      return FailFlagFile("index", "artifact", artifact_path, loaded.status());
    }
    artifact = std::move(*loaded);
  } else {
    auto rule = LoadRule(rule_path);
    if (!rule.ok()) {
      return FailFlagFile("index", "rule", rule_path, rule.status());
    }
    artifact.rule = std::move(*rule);
  }
  // The blocking knobs are baked into the artifact; `query --index` /
  // `serve --index` serve exactly these.
  if (args.Has("blocking-top-tokens")) {
    artifact.options.blocking_max_tokens = top_tokens;
  }
  if (args.Has("blocking-min-df")) {
    artifact.options.blocking_min_token_df = min_df;
  }

  const char* out = args.Get("out");
  ThreadPool pool(threads);
  CorpusArtifactStats stats;
  const auto start = std::chrono::steady_clock::now();
  Status written =
      WriteCorpusArtifact(out, *target, artifact.rule, artifact.options, &pool,
                          &stats);
  if (!written.ok()) return FailFlagFile("index", "out", out, written);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::fprintf(stderr,
               "indexed %llu entities in %.3fs: %llu strings, %llu value "
               "plans, %llu blocking tokens, %llu postings "
               "(%.1f MiB) -> %s\n",
               static_cast<unsigned long long>(stats.num_entities), seconds,
               static_cast<unsigned long long>(stats.num_strings),
               static_cast<unsigned long long>(stats.num_plans),
               static_cast<unsigned long long>(stats.num_tokens),
               static_cast<unsigned long long>(stats.num_postings),
               static_cast<double>(stats.file_bytes) / (1024.0 * 1024.0), out);
  return 0;
}

int RunQuery(const Args& args) {
  const char* artifact_path = args.Get("artifact");
  const char* rule_path = args.Get("rule");
  if ((artifact_path == nullptr) == (rule_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink query: pass exactly one of --artifact or --rule\n"
                 "(run 'genlink query --help' for usage)\n");
    return 2;
  }
  const char* target_path = args.Get("target");
  const char* index_path = args.Get("index");
  if ((target_path == nullptr) == (index_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink query: pass exactly one of --target or --index\n"
                 "(run 'genlink query --help' for usage)\n");
    return 2;
  }
  if (index_path != nullptr) {
    for (const char* flag : {"blocking-top-tokens", "blocking-min-df"}) {
      if (!args.Has(flag)) continue;
      std::fprintf(stderr,
                   "genlink query: --%s cannot apply with --index: the index "
                   "carries the blocking knobs it was built with (re-run "
                   "`genlink index` to change them)\n",
                   flag);
      return 2;
    }
  }
  // Validate the overrides before any file I/O; they apply on top of
  // the artifact's options once it is loaded.
  double threshold_override = 0.0;
  size_t threads_override = 0;
  size_t top_tokens_override = 0;
  size_t min_df_override = 1;
  if (!FlagAsDouble(args, "query", "threshold", &threshold_override) ||
      !FlagAsCount(args, "query", "threads", 0, &threads_override) ||
      !FlagAsCount(args, "query", "blocking-top-tokens", 0,
                   &top_tokens_override) ||
      !FlagAsCount(args, "query", "blocking-min-df", 1, &min_df_override)) {
    return 2;
  }

  // Exactly one of these two corpus sources is populated; the mapped
  // corpus (and with it every span the index serves) stays alive for
  // the whole query loop via the shared_ptr.
  std::optional<Dataset> target;
  std::shared_ptr<const MappedCorpus> mapped;
  if (target_path != nullptr) {
    auto loaded = LoadDataset(target_path, args.Get("id-column", "id"), "target");
    if (!loaded.ok()) {
      return FailFlagFile("query", "target", target_path, loaded.status());
    }
    target.emplace(std::move(*loaded));
  } else {
    auto loaded = MappedCorpus::Load(index_path);
    if (!loaded.ok()) {
      return FailFlagFile("query", "index", index_path, loaded.status());
    }
    mapped = std::move(*loaded);
  }

  RuleArtifact artifact;
  if (artifact_path != nullptr) {
    auto loaded = LoadArtifact(artifact_path);
    if (!loaded.ok()) {
      return FailFlagFile("query", "artifact", artifact_path, loaded.status());
    }
    artifact = std::move(*loaded);
  } else {
    auto rule = LoadRule(rule_path);
    if (!rule.ok()) {
      return FailFlagFile("query", "rule", rule_path, rule.status());
    }
    artifact.rule = std::move(*rule);
  }
  if (args.Has("best-match")) artifact.options.best_match_only = true;
  if (args.Has("threshold")) artifact.options.threshold = threshold_override;
  if (args.Has("threads")) artifact.options.num_threads = threads_override;
  if (args.Has("blocking-top-tokens")) {
    artifact.options.blocking_max_tokens = top_tokens_override;
  }
  if (args.Has("blocking-min-df")) {
    artifact.options.blocking_min_token_df = min_df_override;
  }

  // Build once; every query below is a cheap lookup against these
  // artifacts (api/matcher_index.h). The mapped build serves the
  // blocking knobs the artifact was indexed with, and fails with a
  // named error when the artifact lacks the rule's plans or blocking
  // properties — re-run `genlink index`.
  std::shared_ptr<const MatcherIndex> index;
  if (mapped != nullptr) {
    auto built = MatcherIndex::Build(mapped, artifact.rule, artifact.options);
    if (!built.ok()) {
      return FailFlagFile("query", "index", index_path, built.status());
    }
    index = std::move(*built);
  } else {
    index = MatcherIndex::Build(*target, artifact.rule, artifact.options);
  }
  MatcherIndexStats stats = index->stats();
  std::fprintf(stderr,
               "index built over %zu entities in %.3fs "
               "(%zu blocking tokens, %zu postings, %zu value plans)\n",
               stats.target_entities, stats.build_seconds,
               stats.blocking_tokens, stats.blocking_postings,
               stats.value_plans);

  // Query source: a CSV file or stdin, consumed INCREMENTALLY — each
  // record is served as soon as its line(s) arrive, so a long-running
  // producer piping into `genlink query` sees answers before closing
  // the stream.
  std::ifstream entities_file;
  std::istream* in = &std::cin;
  if (const char* entities_path = args.Get("entities")) {
    entities_file.open(entities_path, std::ios::binary);
    if (!entities_file) {
      return FailFlagFile("query", "entities", entities_path,
                          Status::IoError("cannot open file"));
    }
    in = &entities_file;
  }
  CsvDatasetOptions csv_options;
  csv_options.id_column = args.Get("id-column", "id");
  CsvEntityStream queries(*in, csv_options);
  if (!queries.status().ok()) {
    return FailFlagFile("query", "entities", args.Get("entities", "<stdin>"),
                        queries.status());
  }

  std::FILE* out = stdout;
  const char* out_path = args.Get("out");
  if (out_path != nullptr) {
    out = std::fopen(out_path, "wb");
    if (out == nullptr) {
      return FailFlagFile("query", "out", out_path,
                          Status::IoError("cannot open file"));
    }
  }

  std::fwrite(kGeneratedLinksCsvHeader.data(), 1,
              kGeneratedLinksCsvHeader.size(), out);
  std::fflush(out);
  size_t served = 0;
  size_t total_links = 0;
  const auto start = std::chrono::steady_clock::now();
  Entity entity;
  while (!g_interrupted.load(std::memory_order_relaxed) &&
         queries.Next(&entity)) {
    auto links = index->MatchEntity(entity, queries.schema());
    for (const GeneratedLink& link : links) {
      const std::string row = GeneratedLinkCsvRow(link);
      std::fwrite(row.data(), 1, row.size(), out);
    }
    ++served;
    total_links += links.size();
    std::fflush(out);
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (out != stdout) std::fclose(out);
  if (!queries.status().ok()) {
    return FailFlagFile("query", "entities", args.Get("entities", "<stdin>"),
                        queries.status());
  }
  std::fprintf(stderr, "served %zu queries, %zu links (%.0f queries/s)\n",
               served, total_links, seconds > 0.0 ? served / seconds : 0.0);
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "interrupted by %s; answers so far were flushed\n",
                 SignalName());
    return InterruptExitCode();
  }
  return 0;
}

int RunServe(const Args& args) {
  size_t port = 0;
  size_t workers = 2;
  size_t max_queue = 16;
  size_t request_deadline_ms = 2000;
  size_t read_timeout_ms = 5000;
  size_t drain_deadline_ms = 5000;
  size_t threads = 0;
  size_t compact_threshold = 0;
  if (!FlagAsCount(args, "serve", "port", 0, &port) ||
      !FlagAsCount(args, "serve", "workers", 1, &workers) ||
      !FlagAsCount(args, "serve", "max-queue", 0, &max_queue) ||
      !FlagAsCount(args, "serve", "request-deadline-ms", 1,
                   &request_deadline_ms) ||
      !FlagAsCount(args, "serve", "read-timeout-ms", 1, &read_timeout_ms) ||
      !FlagAsCount(args, "serve", "drain-deadline-ms", 1, &drain_deadline_ms) ||
      !FlagAsCount(args, "serve", "threads", 0, &threads) ||
      !FlagAsCount(args, "serve", "compact-threshold", 0, &compact_threshold)) {
    return 2;
  }
  if (port > 65535) {
    std::fprintf(stderr, "genlink serve: flag '--port' expects <= 65535\n");
    return 2;
  }
  if (args.Has("compact-threshold") && !args.Has("live")) {
    std::fprintf(stderr,
                 "genlink serve: flag '--compact-threshold' needs --live\n");
    return 2;
  }
  std::optional<LiveCorpusOptions> live;
  if (args.Has("live")) {
    live.emplace();
    live->compact_delta_threshold = compact_threshold;
  }
  const char* target_path = args.Get("target");
  const char* index_path = args.Get("index");
  if ((target_path == nullptr) == (index_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink serve: pass exactly one of --target or --index\n"
                 "(run 'genlink serve --help' for usage)\n");
    return 2;
  }

  // The corpus behind the daemon: an in-memory dataset (parsed here)
  // or a mapped v2 artifact (zero-copy; the shared_ptr keeps the
  // mapping alive for the daemon's lifetime). ServingState is not
  // movable (it owns mutexes), so it is emplaced once the corpus is
  // known.
  std::optional<Dataset> target;
  std::optional<ServingState> state;
  if (target_path != nullptr) {
    auto loaded = LoadDataset(target_path, args.Get("id-column", "id"), "target");
    if (!loaded.ok()) {
      return FailFlagFile("serve", "target", target_path, loaded.status());
    }
    target.emplace(std::move(*loaded));
    state.emplace(*target, threads, live);
  } else {
    auto loaded = MappedCorpus::Load(index_path);
    if (!loaded.ok()) {
      return FailFlagFile("serve", "index", index_path, loaded.status());
    }
    state.emplace(std::move(*loaded), threads, live);
  }

  const char* artifact_path = args.Get("artifact");
  // The initial deploy takes the same failure-checked path as a live
  // reload; at startup a bad artifact is fatal (there is nothing older
  // to keep serving).
  Status deployed = state->ReloadFromFile(artifact_path);
  if (!deployed.ok()) {
    return FailFlagFile("serve", "artifact", artifact_path, deployed);
  }

  ServeOptions options;
  options.port = static_cast<uint16_t>(port);
  options.num_workers = workers;
  options.max_queue = max_queue;
  options.request_deadline = std::chrono::milliseconds(request_deadline_ms);
  options.read_timeout = std::chrono::milliseconds(read_timeout_ms);
  options.drain_deadline = std::chrono::milliseconds(drain_deadline_ms);
  options.csv.id_column = args.Get("id-column", "id");

  ServeDaemon daemon(*state, options);
  Status started = daemon.Start();
  if (!started.ok()) return Fail(started);

  if (const char* port_file = args.Get("port-file")) {
    Status status =
        WriteStringToFile(port_file, std::to_string(daemon.port()) + "\n");
    if (!status.ok()) {
      return FailFlagFile("serve", "port-file", port_file, status);
    }
  }
  // SIGINT/SIGTERM reach the daemon through its self-pipe (the handler
  // may only write() a byte) and begin the graceful drain.
  g_serve_shutdown_fd.store(daemon.shutdown_fd(), std::memory_order_relaxed);
  std::fprintf(stderr,
               "serving on 127.0.0.1:%u (%zu workers, queue %zu, "
               "deadline %zums); SIGTERM drains\n",
               daemon.port(), workers, max_queue, request_deadline_ms);
  std::fflush(stderr);

  const bool clean = daemon.WaitForDrain();
  g_serve_shutdown_fd.store(-1, std::memory_order_relaxed);
  std::fprintf(stderr, "drained %s\n%s", clean ? "cleanly" : "WITH ABORTS",
               daemon.RenderVarz().c_str());
  // A drained daemon exits 0: SIGTERM is the *intended* way to stop
  // serving, not an error (docs/SERVING.md).
  return clean ? 0 : 1;
}

int RunApply(const Args& args) {
  const char* artifact_path = args.Get("artifact");
  const char* rule_path = args.Get("rule");
  if ((artifact_path == nullptr) == (rule_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink apply: pass exactly one of --artifact or --rule\n"
                 "(run 'genlink apply --help' for usage)\n");
    return 2;
  }
  const char* target_path = args.Get("target");
  const char* index_path = args.Get("index");
  if ((target_path == nullptr) == (index_path == nullptr)) {
    std::fprintf(stderr,
                 "genlink apply: pass exactly one of --target or --index\n"
                 "(run 'genlink apply --help' for usage)\n");
    return 2;
  }
  size_t batch_size = 256;
  size_t compact_every = 0;
  size_t compact_threshold = 0;
  size_t threads_override = 0;
  double threshold_override = 0.0;
  if (!FlagAsCount(args, "apply", "batch-size", 1, &batch_size) ||
      !FlagAsCount(args, "apply", "compact-every", 0, &compact_every) ||
      !FlagAsCount(args, "apply", "compact-threshold", 0, &compact_threshold) ||
      !FlagAsCount(args, "apply", "threads", 0, &threads_override) ||
      !FlagAsDouble(args, "apply", "threshold", &threshold_override)) {
    return 2;
  }
  if (index_path != nullptr &&
      (args.Has("verify") || args.Has("out-index") ||
       args.Has("compact-every") || args.Has("compact-threshold"))) {
    // A mapped artifact stores transformed value spans, not raw
    // values, so the logical corpus cannot be rematerialized from it
    // (live/live_corpus.h).
    std::fprintf(stderr,
                 "genlink apply: --verify, --out-index and compaction need "
                 "--target (a mapped --index base cannot compact)\n");
    return 2;
  }

  std::optional<Dataset> target;
  std::shared_ptr<const MappedCorpus> mapped;
  if (target_path != nullptr) {
    auto loaded = LoadDataset(target_path, args.Get("id-column", "id"), "target");
    if (!loaded.ok()) {
      return FailFlagFile("apply", "target", target_path, loaded.status());
    }
    target.emplace(std::move(*loaded));
  } else {
    auto loaded = MappedCorpus::Load(index_path);
    if (!loaded.ok()) {
      return FailFlagFile("apply", "index", index_path, loaded.status());
    }
    mapped = std::move(*loaded);
  }

  RuleArtifact artifact;
  if (artifact_path != nullptr) {
    auto loaded = LoadArtifact(artifact_path);
    if (!loaded.ok()) {
      return FailFlagFile("apply", "artifact", artifact_path, loaded.status());
    }
    artifact = std::move(*loaded);
  } else {
    auto rule = LoadRule(rule_path);
    if (!rule.ok()) {
      return FailFlagFile("apply", "rule", rule_path, rule.status());
    }
    artifact.rule = std::move(*rule);
  }
  if (args.Has("best-match")) artifact.options.best_match_only = true;
  if (args.Has("threshold")) artifact.options.threshold = threshold_override;
  if (args.Has("threads")) artifact.options.num_threads = threads_override;

  LiveCorpusOptions live_options;
  live_options.compact_delta_threshold = compact_threshold;
  Result<std::unique_ptr<LiveCorpus>> live =
      mapped != nullptr
          ? LiveCorpus::Create(mapped, artifact.rule, artifact.options,
                               live_options)
          : LiveCorpus::Create(*target, artifact.rule, artifact.options,
                               live_options);
  if (!live.ok()) return Fail(live.status());

  auto content = ReadFileToString(args.Get("deltas"));
  if (!content.ok()) {
    return FailFlagFile("apply", "deltas", args.Get("deltas"),
                        content.status());
  }
  Result<DeltaBatch> batch = ReadDeltaCsv(*content);
  if (!batch.ok()) {
    return FailFlagFile("apply", "deltas", args.Get("deltas"), batch.status());
  }

  // The stream applies in --batch-size chunks, each publishing one
  // epoch snapshot; SIGINT/SIGTERM stop at the next batch boundary
  // (batches are atomic — nothing is ever half-applied).
  const std::span<const LiveOp> ops(batch->ops);
  const auto start = std::chrono::steady_clock::now();
  size_t applied = 0;
  size_t batches = 0;
  for (size_t offset = 0; offset < ops.size(); offset += batch_size) {
    if (g_interrupted.load(std::memory_order_relaxed)) break;
    const size_t count = std::min(batch_size, ops.size() - offset);
    Status status =
        (*live)->ApplyBatch(ops.subspan(offset, count), batch->schema);
    if (!status.ok()) {
      return FailFlagFile("apply", "deltas", args.Get("deltas"), status);
    }
    applied += count;
    ++batches;
    if (compact_every > 0 && batches % compact_every == 0) {
      Status compacted = (*live)->Compact();
      if (!compacted.ok()) return Fail(compacted);
    }
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const LiveCorpusStats stats = (*live)->stats();
  std::fprintf(stderr,
               "applied %zu/%zu ops in %zu batches (%.3fs, %.0f ops/s): "
               "epoch %llu, %zu live entities, %llu upserts, %llu removes, "
               "%llu compactions\n",
               applied, ops.size(), batches, seconds,
               seconds > 0.0 ? applied / seconds : 0.0,
               static_cast<unsigned long long>(stats.epoch),
               stats.live_entities,
               static_cast<unsigned long long>(stats.upserts),
               static_cast<unsigned long long>(stats.removes),
               static_cast<unsigned long long>(stats.compactions));
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::fprintf(stderr, "interrupted by %s; applied batches are committed\n",
                 SignalName());
    return InterruptExitCode();
  }

  // apply --verify: the streamed index must answer bit-identically to
  // a cold rebuild over the final logical corpus — the LiveCorpus
  // correctness gate (tests/live_corpus_test.cc), checked here over
  // real files.
  if (args.Has("verify")) {
    Result<Dataset> logical = (*live)->MaterializeLogical();
    if (!logical.ok()) return Fail(logical.status());
    const std::shared_ptr<const MatcherIndex> fresh =
        MatcherIndex::Build(*logical, artifact.rule, artifact.options);
    const std::vector<GeneratedLink> got =
        (*live)->MatchBatch(logical->entities(), logical->schema());
    const std::vector<GeneratedLink> want =
        fresh->MatchBatch(logical->entities(), logical->schema());
    bool identical = got.size() == want.size();
    for (size_t i = 0; identical && i < got.size(); ++i) {
      identical = got[i].id_a == want[i].id_a &&
                  got[i].id_b == want[i].id_b &&
                  got[i].score == want[i].score;
    }
    if (!identical) {
      std::fprintf(stderr,
                   "VERIFY FAILED: streamed index diverges from a cold "
                   "rebuild (%zu vs %zu links)\n",
                   got.size(), want.size());
      return 1;
    }
    std::fprintf(stderr,
                 "verify: OK — %zu links bit-identical to a cold rebuild "
                 "of %zu entities\n",
                 got.size(), logical->size());
  }

  if (const char* out_index = args.Get("out-index")) {
    Status persisted = (*live)->CompactTo(out_index);
    if (!persisted.ok()) {
      return FailFlagFile("apply", "out-index", out_index, persisted);
    }
    std::fprintf(stderr, "final corpus persisted to %s (epoch %llu)\n",
                 out_index,
                 static_cast<unsigned long long>((*live)->epoch()));
  }
  return 0;
}

int RunGen(const Args& args) {
  SyntheticConfig config;
  config.num_threads = 0;  // generation is parallel-safe; use all cores
  size_t seed_value = config.seed;
  SyntheticDeltaConfig delta_config;
  size_t delta_seed = delta_config.seed;
  if (!FlagAsCount(args, "gen", "entities", 1, &config.num_entities) ||
      !FlagAsCount(args, "gen", "seed", 0, &seed_value) ||
      !FlagAsCount(args, "gen", "threads", 0, &config.num_threads) ||
      !FlagAsDouble(args, "gen", "duplicate-rate", &config.duplicate_rate) ||
      !FlagAsDouble(args, "gen", "confusable-rate", &config.confusable_rate) ||
      !FlagAsDouble(args, "gen", "typo-rate", &config.typo_probability) ||
      !FlagAsDouble(args, "gen", "missing-rate",
                    &config.missing_field_probability) ||
      !FlagAsCount(args, "gen", "deltas", 0, &delta_config.num_deltas) ||
      !FlagAsCount(args, "gen", "delta-seed", 0, &delta_seed) ||
      !FlagAsDouble(args, "gen", "delta-delete-rate",
                    &delta_config.delete_rate) ||
      !FlagAsDouble(args, "gen", "delta-new-rate",
                    &delta_config.new_entity_rate)) {
    return 2;
  }
  config.seed = seed_value;
  delta_config.seed = delta_seed;
  if (args.Has("deltas") != args.Has("out-deltas")) {
    std::fprintf(stderr,
                 "genlink gen: --deltas and --out-deltas go together\n"
                 "(run 'genlink gen --help' for usage)\n");
    return 2;
  }

  const MatchingTask task = GenerateSynthetic(config);

  // Stream one CSV row per entity through a chunked buffer, so a 1M+
  // corpus never materializes as one giant string.
  const auto write_dataset = [](const Dataset& dataset,
                                const char* path) -> Status {
    std::FILE* out = std::fopen(path, "wb");
    if (out == nullptr) {
      return Status::IoError(std::string("cannot open file: ") + path);
    }
    const Schema& schema = dataset.schema();
    std::vector<std::string> row;
    row.push_back("id");
    for (const std::string& name : schema.property_names()) row.push_back(name);
    std::string buffer = WriteCsv({row});
    for (const Entity& entity : dataset.entities()) {
      // SIGINT/SIGTERM: stop between rows; whatever is buffered is
      // flushed below so the file ends on a complete CSV record.
      if (g_interrupted.load(std::memory_order_relaxed)) break;
      row.clear();
      row.push_back(entity.id());
      for (PropertyId p = 0; p < schema.NumProperties(); ++p) {
        const ValueSet& values = entity.Values(p);
        row.push_back(values.empty() ? std::string() : values.front());
      }
      buffer += WriteCsv({row});
      if (buffer.size() >= 1 << 20) {
        std::fwrite(buffer.data(), 1, buffer.size(), out);
        buffer.clear();
      }
    }
    std::fwrite(buffer.data(), 1, buffer.size(), out);
    if (std::fclose(out) != 0) {
      return Status::IoError(std::string("write failed: ") + path);
    }
    return Status::Ok();
  };

  Status status = write_dataset(task.a, args.Get("out-source"));
  if (!status.ok()) {
    return FailFlagFile("gen", "out-source", args.Get("out-source"), status);
  }
  status = write_dataset(task.b, args.Get("out-target"));
  if (!status.ok()) {
    return FailFlagFile("gen", "out-target", args.Get("out-target"), status);
  }
  status = WriteStringToFile(args.Get("out-links"), WriteLinksCsv(task.links));
  if (!status.ok()) {
    return FailFlagFile("gen", "out-links", args.Get("out-links"), status);
  }
  if (g_interrupted.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "interrupted by %s; partial datasets were flushed (links "
                 "file is complete)\n",
                 SignalName());
    return InterruptExitCode();
  }

  std::fprintf(stderr,
               "generated %zu + %zu entities, %zu positive / %zu negative "
               "links (seed %llu, fingerprint %016llx)\n",
               task.a.size(), task.b.size(), task.links.positives().size(),
               task.links.negatives().size(),
               static_cast<unsigned long long>(config.seed),
               static_cast<unsigned long long>(FingerprintTask(task)));

  // gen --deltas: a deterministic update/delete stream against the
  // target side, written in the delta CSV format `genlink apply
  // --deltas` consumes. Only on request: the config's default count is
  // not a request, and without --deltas there is no --out-deltas.
  if (args.Has("deltas")) {
    delta_config.base = config;
    const SyntheticDeltas deltas = GenerateSyntheticDeltas(delta_config);
    std::vector<LiveOp> ops;
    ops.reserve(deltas.ops.size());
    for (const SyntheticDelta& delta : deltas.ops) {
      LiveOp op;
      if (delta.remove) {
        op.kind = LiveOp::Kind::kRemove;
        op.id = delta.entity.id();
      } else {
        op.entity = delta.entity;
      }
      ops.push_back(std::move(op));
    }
    status = WriteStringToFile(args.Get("out-deltas"),
                               WriteDeltaCsv(deltas.schema, ops));
    if (!status.ok()) {
      return FailFlagFile("gen", "out-deltas", args.Get("out-deltas"), status);
    }
    std::fprintf(stderr,
                 "generated %zu deltas (seed %llu, fingerprint %016llx)\n",
                 deltas.ops.size(),
                 static_cast<unsigned long long>(delta_config.seed),
                 static_cast<unsigned long long>(FingerprintDeltas(deltas)));
  }
  return 0;
}

int RunEval(const Args& args) {
  auto a = LoadDataset(args.Get("source"), args.Get("id-column", "id"), "source");
  if (!a.ok()) {
    return FailFlagFile("eval", "source", args.Get("source"), a.status());
  }
  auto b = LoadDataset(args.Get("target"), args.Get("id-column", "id"), "target");
  if (!b.ok()) {
    return FailFlagFile("eval", "target", args.Get("target"), b.status());
  }
  auto rule = LoadRule(args.Get("rule"));
  if (!rule.ok()) {
    return FailFlagFile("eval", "rule", args.Get("rule"), rule.status());
  }
  auto links = LoadLinks(args.Get("links"));
  if (!links.ok()) {
    return FailFlagFile("eval", "links", args.Get("links"), links.status());
  }

  auto generated = GenerateLinks(*rule, *a, *b);
  LinkSetMetrics metrics = EvaluateLinkSet(generated, *links);
  std::printf("generated: %zu  reference: %zu  correct: %zu\n",
              metrics.generated, metrics.reference, metrics.correct);
  std::printf("precision: %.4f  recall: %.4f  F1: %.4f\n", metrics.precision,
              metrics.recall, metrics.f_measure);

  std::printf("\nthreshold sweep:\n");
  for (const auto& point : PrecisionRecallSweep(generated, *links)) {
    std::printf("  t=%.2f  precision %.4f  recall %.4f  F1 %.4f\n",
                point.threshold, point.metrics.precision, point.metrics.recall,
                point.metrics.f_measure);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    PrintTopHelp(stderr);
    return 2;
  }
  const std::string_view command = argv[1];
  if (command == "--version" || command == "version") {
    std::printf("genlink %s\n", GENLINK_VERSION);
    return 0;
  }
  if (command == "--help" || command == "-h" || command == "help") {
    PrintTopHelp(stdout);
    return 0;
  }
  const CommandSpec* spec = FindCommand(command);
  if (spec == nullptr) {
    std::fprintf(stderr, "genlink: unknown command '%s'\n\n",
                 std::string(command).c_str());
    PrintTopHelp(stderr);
    return 2;
  }
  Args args;
  args.command = spec->name;
  const int parse_exit = ParseFlags(*spec, argc, argv, args);
  if (parse_exit >= 0) return parse_exit;
  InstallSignalHandlers();
  if (command == "learn") return RunLearn(args);
  if (command == "match") return RunMatch(args);
  if (command == "index") return RunIndex(args);
  if (command == "query") return RunQuery(args);
  if (command == "serve") return RunServe(args);
  if (command == "apply") return RunApply(args);
  if (command == "gen") return RunGen(args);
  return RunEval(args);
}

}  // namespace
}  // namespace genlink

int main(int argc, char** argv) { return genlink::Main(argc, argv); }
