/* CPU clocks for the benchmark: the kernel's run-time accounting of the
   calling thread and of the whole process. Neither advances while the
   thread waits for a CPU, sleeps, or has its virtual CPU taken away by
   the hypervisor ("steal"), so times read from them do not depend on
   what else the machine runs. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

static value seconds_of(clockid_t clock)
{
  struct timespec ts;
  if (clock_gettime(clock, &ts) != 0) return caml_copy_double(0.);
  return caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9);
}

value perfbench_thread_cpu(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_THREAD_CPUTIME_ID);
}

value perfbench_process_cpu(value unit)
{
  (void)unit;
  return seconds_of(CLOCK_PROCESS_CPUTIME_ID);
}
