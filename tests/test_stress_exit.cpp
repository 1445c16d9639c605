// Stress test for process exit while pool workers are still starting.
//
// Run with `--child`, the binary starts a global ThreadPool with four
// workers and returns at once, so static destruction runs while workers
// may still be taking their first steps (obs::set_thread_name, the pool's
// timed queue mutex).  Anything those steps reach — the trace buffer
// registry, the stats registry behind the mutex's contention counters —
// must outlive every thread, or the process corrupts its heap at exit.
//
// Run without `--child`, it pins itself to two CPUs (fewer cores than
// workers, so worker start-up and exit interleave), re-executes itself as
// a child N times (default 1000, or argv[1]) and fails if any child dies
// from a signal or exits nonzero.  The race is rare per run (about 1 in
// 100 on a 4-core x86 VM before the registries were made immortal), hence
// the repetition.
#include <sched.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "patlabor/obs/obs.hpp"
#include "patlabor/par/pool.hpp"

namespace {

int child() {
  using namespace patlabor;
  obs::set_enabled(true);
  obs::set_thread_name("main");
  par::set_jobs(5);  // the caller's lane plus four workers
  par::global_pool();
  return 0;
}

/// Restricts this process (and so every child) to its first two allowed
/// CPUs; a one-CPU host keeps its one CPU.
void pin_to_two_cpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int taken = 0;
  for (int c = 0; c < CPU_SETSIZE && taken < 2; ++c)
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &pinned);
      ++taken;
    }
  sched_setaffinity(0, sizeof pinned, &pinned);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--child") == 0) return child();
  const int runs = argc > 1 ? std::atoi(argv[1]) : 1000;
  pin_to_two_cpus();
  int failures = 0;
  for (int i = 0; i < runs; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 2;
    }
    if (pid == 0) {
      execl("/proc/self/exe", argv[0], "--child", static_cast<char*>(nullptr));
      _exit(127);
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      std::perror("waitpid");
      return 2;
    }
    if (WIFSIGNALED(status)) {
      std::fprintf(stderr, "run %d: killed by signal %d (%s)\n", i,
                   WTERMSIG(status), strsignal(WTERMSIG(status)));
      ++failures;
    } else if (WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "run %d: exit status %d\n", i,
                   WEXITSTATUS(status));
      ++failures;
    }
  }
  std::printf("%d/%d runs exited cleanly\n", runs - failures, runs);
  return failures == 0 ? 0 : 1;
}
