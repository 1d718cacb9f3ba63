// Clang thread-safety-analysis macros (a no-op on every other
// compiler). Wrapping the attributes keeps the annotated headers
// portable: GCC builds them as plain C++, while the CI `analysis` job
// compiles with `clang++ -Wthread-safety -Werror`, turning an
// unguarded access to annotated shared state into a build break
// instead of a flaky test.
//
// The names mirror the standard capability vocabulary
// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html):
//
//   GENLINK_CAPABILITY(x)        — a class is a lockable capability
//   GENLINK_SCOPED_CAPABILITY    — an RAII guard acquiring/releasing one
//   GENLINK_GUARDED_BY(mu)       — data requiring `mu` to touch
//   GENLINK_REQUIRES(mu)         — function precondition: `mu` held
//   GENLINK_ACQUIRE(...) / GENLINK_RELEASE(...) — take / drop `mu`
//   GENLINK_TRY_ACQUIRE(b, ...)  — conditional acquire, true on success
//   GENLINK_EXCLUDES(mu)         — function must NOT hold `mu` (non-
//                                  reentrancy; analysis-only)
//   GENLINK_RETURN_CAPABILITY(mu)        — function returns a ref to `mu`
//   GENLINK_NO_THREAD_SAFETY_ANALYSIS    — opt a definition out (last
//                                          resort; say why in a comment)
//
// Every capability is exclusive: there is no shared (reader) mode, so
// the shared-mode attributes are not wrapped.
//
// The concrete capability types (Mutex and the PhaseRole discipline
// token) live in common/mutex.h; the lock hierarchy and what each
// capability guards are documented in docs/CONCURRENCY.md.

#ifndef GENLINK_COMMON_THREAD_ANNOTATIONS_H_
#define GENLINK_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && (!defined(SWIG))
#define GENLINK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GENLINK_THREAD_ANNOTATION(x)  // no-op
#endif

#define GENLINK_CAPABILITY(x) GENLINK_THREAD_ANNOTATION(capability(x))

#define GENLINK_SCOPED_CAPABILITY GENLINK_THREAD_ANNOTATION(scoped_lockable)

#define GENLINK_GUARDED_BY(x) GENLINK_THREAD_ANNOTATION(guarded_by(x))

#define GENLINK_ACQUIRED_BEFORE(...) \
  GENLINK_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

#define GENLINK_ACQUIRED_AFTER(...) \
  GENLINK_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

#define GENLINK_REQUIRES(...) \
  GENLINK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

#define GENLINK_ACQUIRE(...) \
  GENLINK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

#define GENLINK_RELEASE(...) \
  GENLINK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

#define GENLINK_TRY_ACQUIRE(...) \
  GENLINK_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

#define GENLINK_EXCLUDES(...) \
  GENLINK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

#define GENLINK_RETURN_CAPABILITY(x) GENLINK_THREAD_ANNOTATION(lock_returned(x))

#define GENLINK_NO_THREAD_SAFETY_ANALYSIS \
  GENLINK_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // GENLINK_COMMON_THREAD_ANNOTATIONS_H_
