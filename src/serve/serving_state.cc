#include "serve/serving_state.h"

#include <utility>

#include "io/corpus_artifact.h"

namespace genlink {

ServingState::ServingState(const Dataset& corpus, size_t num_threads,
                           std::optional<LiveCorpusOptions> live)
    : corpus_(&corpus), num_threads_(num_threads),
      live_options_(std::move(live)) {}

ServingState::ServingState(std::shared_ptr<const MappedCorpus> corpus,
                           size_t num_threads,
                           std::optional<LiveCorpusOptions> live)
    : mapped_(std::move(corpus)), num_threads_(num_threads),
      live_options_(std::move(live)) {}

Status ServingState::DeployLocked(const RuleArtifact& artifact) {
  if (live_options_.has_value()) {
    // Live mode: the first deploy builds the live corpus, later deploys
    // hot-swap the rule in place. DeployRule has the same
    // graceful-degradation contract as TryWithRule — on failure the old
    // rule keeps serving untouched.
    const std::shared_ptr<LiveCorpus> current = live();
    if (current == nullptr) {
      MatchOptions options = artifact.options;
      options.num_threads = num_threads_;
      Result<std::unique_ptr<LiveCorpus>> built =
          mapped_ != nullptr
              ? LiveCorpus::Create(mapped_, artifact.rule, options,
                                   *live_options_)
              : LiveCorpus::Create(*corpus_, artifact.rule, options,
                                   *live_options_);
      if (!built.ok()) return built.status();
      std::atomic_store(&live_,
                        std::shared_ptr<LiveCorpus>(std::move(built).value()));
    } else {
      const Status redeployed =
          current->DeployRule(artifact.rule, artifact.options);
      if (!redeployed.ok()) return redeployed;
    }
    MutexLock lock(mutex_);
    ++generation_;
    last_error_.clear();
    rule_name_ = artifact.name;
    return Status::Ok();
  }

  const std::shared_ptr<const MatcherIndex> old = index();
  std::shared_ptr<const MatcherIndex> next;
  if (old == nullptr) {
    MatchOptions options = artifact.options;
    options.num_threads = num_threads_;
    if (mapped_ != nullptr) {
      Result<std::shared_ptr<const MatcherIndex>> built =
          MatcherIndex::Build(mapped_, artifact.rule, options);
      if (!built.ok()) return built.status();
      next = std::move(built).value();
    } else {
      next = MatcherIndex::Build(*corpus_, artifact.rule, options);
    }
  } else {
    // Shares the corpus stores with the live index; TryWithRule pins
    // num_threads to the corpus value and surfaces mapped-corpus
    // compile failures (plan or blocking config missing from the
    // artifact) without touching the published index.
    Result<std::shared_ptr<const MatcherIndex>> rebuilt =
        old->TryWithRule(artifact.rule, artifact.options);
    if (!rebuilt.ok()) return rebuilt.status();
    next = std::move(rebuilt).value();
  }
  std::atomic_store(&index_, std::move(next));
  MutexLock lock(mutex_);
  ++generation_;
  last_error_.clear();
  rule_name_ = artifact.name;
  return Status::Ok();
}

Status ServingState::Deploy(const RuleArtifact& artifact) {
  MutexLock reload(reload_mutex_);
  const Status status = DeployLocked(artifact);
  if (!status.ok()) {
    // The undeployable rule never reaches the index: the previous
    // deployment keeps serving, the state goes stale.
    MutexLock lock(mutex_);
    ++failed_reloads_;
    last_error_ =
        "deploy of '" + artifact.name + "' failed: " + status.ToString();
    return Status(status.code(), last_error_);
  }
  return Status::Ok();
}

Status ServingState::ReloadFromFile(const std::string& path) {
  MutexLock reload(reload_mutex_);
  std::string resolved = path;
  {
    MutexLock lock(mutex_);
    if (resolved.empty()) resolved = artifact_path_;
    if (resolved.empty()) {
      const Status status =
          Status::FailedPrecondition("no artifact path to reload from");
      ++failed_reloads_;
      last_error_ = status.ToString();
      return status;
    }
    artifact_path_ = resolved;
  }
  Result<RuleArtifact> artifact = LoadArtifact(resolved);
  if (!artifact.ok()) {
    // The corrupt/mismatched artifact never reaches the index: the
    // previous deployment keeps serving, the state goes stale.
    MutexLock lock(mutex_);
    ++failed_reloads_;
    last_error_ = "reload of '" + resolved + "' failed: " +
                  artifact.status().ToString();
    return Status(artifact.status().code(), last_error_);
  }

  // Same commit path as Deploy (reload_mutex_ is already held; Mutex is
  // not recursive).
  const Status status = DeployLocked(*artifact);
  if (!status.ok()) {
    MutexLock lock(mutex_);
    ++failed_reloads_;
    last_error_ =
        "reload of '" + resolved + "' failed: " + status.ToString();
    return Status(status.code(), last_error_);
  }
  return Status::Ok();
}

std::shared_ptr<const MatcherIndex> ServingState::index() const {
  return std::atomic_load(&index_);
}

std::shared_ptr<LiveCorpus> ServingState::live() const {
  return std::atomic_load(&live_);
}

ServingState::Snapshot ServingState::snapshot() const {
  Snapshot snapshot;
  const std::shared_ptr<const MatcherIndex> live_index = index();
  if (live_index != nullptr) {
    snapshot.build_seconds = live_index->stats().build_seconds;
  }
  snapshot.live_mode = live_options_.has_value();
  if (const std::shared_ptr<LiveCorpus> live_corpus = live();
      live_corpus != nullptr) {
    snapshot.epoch = live_corpus->epoch();
  }
  MutexLock lock(mutex_);
  snapshot.generation = generation_;
  snapshot.failed_reloads = failed_reloads_;
  snapshot.stale = !last_error_.empty();
  snapshot.last_error = last_error_;
  snapshot.rule_name = rule_name_;
  return snapshot;
}

}  // namespace genlink
