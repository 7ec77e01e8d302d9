/* Readiness for the wall-clock loop (wallclock.ml).  Unix.select takes
   fd_sets, which hold only descriptors below FD_SETSIZE (1024): a
   descriptor numbered 1024 or more makes it fail with EINVAL.  The
   poll(2) family takes an array of any descriptor numbers.  Where
   ppoll is available its timeout is exact to the nanosecond; plain
   poll counts whole milliseconds, so there the timeout is rounded up
   and a timer may fire up to a millisecond late. */

#if defined(__linux__)
#define _GNU_SOURCE
#endif

#include <errno.h>
#include <math.h>
#include <poll.h>
#include <stdlib.h>
#include <time.h>

#define CAML_NAME_SPACE
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

#if defined(__linux__) || defined(__FreeBSD__) || defined(__OpenBSD__) || defined(__NetBSD__)
#define HAVE_PPOLL 1
#endif

/* [mediactl_poll_readable fds ready timeout] waits until one of the
   descriptors [fds] is readable or [timeout] seconds pass, and sets
   byte [i] of [ready] to 1 if [fds.(i)] is ready and to 0 if not.  A
   hang-up or an error counts as readable, as it does for select: the
   reader then sees the end of file or the error.  Returns the number
   of ready descriptors.  Raises Unix_error as select does: EINTR when
   a signal arrives, EBADF for a descriptor that is not open. */
CAMLprim value mediactl_poll_readable(value fds, value ready, value timeout)
{
  CAMLparam3(fds, ready, timeout);
  mlsize_t n = Wosize_val(fds);
  double secs = Double_val(timeout);
  struct pollfd *pfds = NULL;
  int rc, err;

  if (n > 0) {
    pfds = malloc(n * sizeof *pfds);
    if (pfds == NULL) caml_raise_out_of_memory();
  }
  for (mlsize_t i = 0; i < n; i++) {
    pfds[i].fd = Int_val(Field(fds, i));
    pfds[i].events = POLLIN;
    pfds[i].revents = 0;
  }
  if (secs < 0.0) secs = 0.0;
  caml_enter_blocking_section();
#ifdef HAVE_PPOLL
  {
    struct timespec ts;
    ts.tv_sec = (time_t)secs;
    ts.tv_nsec = (long)((secs - (double)ts.tv_sec) * 1e9);
    rc = ppoll(pfds, (nfds_t)n, &ts, NULL);
  }
#else
  rc = poll(pfds, (nfds_t)n, (int)ceil(secs * 1000.0));
#endif
  err = errno;
  caml_leave_blocking_section();

  if (rc < 0) {
    free(pfds);
    caml_unix_error(err, "poll", Nothing);
  }
  for (mlsize_t i = 0; i < n; i++) {
    short re = pfds[i].revents;
    if (re & POLLNVAL) {
      free(pfds);
      caml_unix_error(EBADF, "poll", Nothing);
    }
    Bytes_val(ready)[i] = (re & (POLLIN | POLLHUP | POLLERR)) ? 1 : 0;
  }
  free(pfds);
  CAMLreturn(Val_int(rc));
}
