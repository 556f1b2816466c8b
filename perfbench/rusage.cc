/**
 * @file
 * perfbench-rusage: run one command and report its wall time and
 * peak resident memory.
 *
 * usage: perfbench-rusage OUT COMMAND [ARG...]
 *
 * Forks and execs COMMAND, waits for it with wait4(), writes
 * "<wall seconds> <peak RSS in KiB>" to OUT and exits with the
 * command's exit code (128 + the signal number when a signal ended
 * it). Linux carries a process's peak RSS across exec, so a command
 * started straight from the benchmark's Python process would report
 * Python's own peak whenever that is the higher one. Forking from
 * this small process keeps the figure to the command's own memory.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: perfbench-rusage OUT COMMAND [ARG...]\n");
        return 125;
    }
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench-rusage: fork");
        return 125;
    }
    if (pid == 0) {
        execvp(argv[2], argv + 2);
        std::fprintf(stderr, "perfbench-rusage: cannot run %s: %s\n",
                     argv[2], std::strerror(errno));
        _exit(127);
    }
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("perfbench-rusage: wait4");
            return 125;
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();

    std::FILE *f = std::fopen(argv[1], "w");
    if (!f || std::fprintf(f, "%.9f %ld\n", wall, ru.ru_maxrss) < 0 ||
        std::fclose(f) != 0) {
        std::fprintf(stderr, "perfbench-rusage: cannot write %s\n",
                     argv[1]);
        return 125;
    }
    if (WIFSIGNALED(status))
        return 128 + WTERMSIG(status);
    return WEXITSTATUS(status);
}
