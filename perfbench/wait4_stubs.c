/* wait4(2) for the benchmark's child processes.  getrusage(RUSAGE_CHILDREN)
   only reports the largest peak RSS over every child ever reaped, so each
   child's own peak RSS has to come from wait4.  Reading it from the
   child's --metrics-json would turn its telemetry on and change what is
   measured. */

#include <errno.h>
#include <sys/types.h>
#include <sys/time.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4(pid, nohang) -> None while the child still runs (only
   with nohang), else Some (status, maxrss_kb).  status is the exit code,
   or 128 + the signal number for a child killed by a signal, as a shell
   reports it. */
CAMLprim value perfbench_wait4(value vpid, value vnohang)
{
  CAMLparam2(vpid, vnohang);
  CAMLlocal2(tuple, result);
  int status = 0;
  struct rusage ru;
  pid_t r;
  int nohang = Bool_val(vnohang);

  if (!nohang) caml_enter_blocking_section();
  do {
    r = wait4(Int_val(vpid), &status, nohang ? WNOHANG : 0, &ru);
  } while (r < 0 && errno == EINTR);
  if (!nohang) caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  if (r == 0) CAMLreturn(Val_none);

  tuple = caml_alloc_tuple(2);
  Store_field(tuple, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? 128 + WTERMSIG(status)
                                            : 255));
  /* Linux reports ru_maxrss in kilobytes. */
  Store_field(tuple, 1, Val_long(ru.ru_maxrss));
  result = caml_alloc_some(tuple);
  CAMLreturn(result);
}
