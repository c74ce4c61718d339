#ifndef MBQ_UTIL_THREAD_ANNOTATIONS_H_
#define MBQ_UTIL_THREAD_ANNOTATIONS_H_

// Clang thread-safety annotations (docs/STATIC_ANALYSIS.md, "Concurrency
// analysis"). Dependency-free: on Clang with -Wthread-safety the macros
// expand to the capability attributes and every GUARDED_BY field and
// REQUIRES contract becomes a compile-time property; on every other
// compiler they expand to nothing, so the annotated tree builds
// identically under GCC.
//
// The annotated mutex types live in util/lock_rank.h (RankedMutex,
// RankedSharedMutex and their guards); annotate data with:
//
//   util::RankedMutex mu_{util::LockRank::kCache, "mycache.mu"};
//   std::vector<Row> rows_ MBQ_GUARDED_BY(mu_);
//   void CompactLocked() MBQ_REQUIRES(mu_);
//
// and lock through util::ScopedLock / util::RankedLock /
// util::SharedScopedLock so both the static analysis and the runtime
// lock-rank checker observe every acquisition.

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MBQ_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MBQ_THREAD_ANNOTATION
#define MBQ_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Marks a type as a capability (lockable). The string names the
/// capability kind in diagnostics ("mutex", "shared_mutex", "role").
#define MBQ_CAPABILITY(x) MBQ_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (std::lock_guard shape).
#define MBQ_SCOPED_CAPABILITY MBQ_THREAD_ANNOTATION(scoped_lockable)

/// The field or method may only be accessed while holding the given
/// capability (exclusively for writes, at least shared for reads).
#define MBQ_GUARDED_BY(x) MBQ_THREAD_ANNOTATION(guarded_by(x))

/// Like MBQ_GUARDED_BY but for the data a pointer points to.
#define MBQ_PT_GUARDED_BY(x) MBQ_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares that this mutex must be acquired after / before the listed
/// mutexes (a static cousin of the runtime lock-rank order).
#define MBQ_ACQUIRED_AFTER(...) MBQ_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define MBQ_ACQUIRED_BEFORE(...) \
  MBQ_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// The function must be called with the listed capabilities held
/// (exclusive / shared), and does not release them.
#define MBQ_REQUIRES(...) \
  MBQ_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define MBQ_REQUIRES_SHARED(...) \
  MBQ_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability (and the caller must not hold it).
#define MBQ_ACQUIRE(...) MBQ_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define MBQ_ACQUIRE_SHARED(...) \
  MBQ_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (which the caller must hold).
#define MBQ_RELEASE(...) MBQ_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define MBQ_RELEASE_SHARED(...) \
  MBQ_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define MBQ_RELEASE_GENERIC(...) \
  MBQ_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// The function acquires the capability iff it returns the given value.
#define MBQ_TRY_ACQUIRE(...) \
  MBQ_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define MBQ_TRY_ACQUIRE_SHARED(...) \
  MBQ_THREAD_ANNOTATION(try_acquire_shared_capability(__VA_ARGS__))

/// The function must be called with the listed capabilities NOT held
/// (deadlock guard for self-locking public entry points).
#define MBQ_EXCLUDES(...) MBQ_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts (for the analysis only) that the capability is held — used on
/// runtime-checked paths the analysis cannot follow.
#define MBQ_ASSERT_CAPABILITY(x) MBQ_THREAD_ANNOTATION(assert_capability(x))
#define MBQ_ASSERT_SHARED_CAPABILITY(x) \
  MBQ_THREAD_ANNOTATION(assert_shared_capability(x))

/// The function returns a reference to the given capability.
#define MBQ_RETURN_CAPABILITY(x) MBQ_THREAD_ANNOTATION(lock_returned(x))

/// Turns the analysis off for one function — reserved for code that is
/// correct but beyond the analysis (lock ownership transferred through
/// objects, locks released around syscalls). Every use carries a comment
/// saying why.
#define MBQ_NO_THREAD_SAFETY_ANALYSIS \
  MBQ_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // MBQ_UTIL_THREAD_ANNOTATIONS_H_
