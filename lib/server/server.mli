(** The pinpoint analysis server (DESIGN.md §4.13).

    A persistent process holding a resident {!Incr.state} and answering
    newline-delimited JSON requests over stdin/stdout or a Unix-domain
    socket.  Request/response schema: README "Server mode".

    Robustness: per-request exception barriers, per-request deadlines
    feeding the solver degradation ladder, one request answered at a time
    on the calling domain (a client that writes ahead waits on the pipe's
    or socket's buffer), checks refused above the RSS watermark (an
    explicit "overloaded" response), and crash-safe epoch snapshots +
    journal for warm restart. *)

type config = {
  max_rss_mb : float;  (** RSS watermark for checks; 0 = unlimited *)
  snapshot_dir : string option;  (** where snapshot.json / journal.jsonl live *)
  snapshot_every : int;  (** updates between full snapshots *)
  incident_cap : int;  (** retained-incident cap of the shared log *)
  default_deadline_s : float;  (** per-checker deadline unless overridden *)
  solver_budget_s : float;
  solver_conflicts : int;
  pool : Pinpoint_par.Pool.t option;
  store : Pinpoint_store.Store.t option;
      (** artifact store for the resident subject (DESIGN.md §4.14);
          kept unsealed so incremental updates can keep appending *)
  prom_file : string option;
      (** Prometheus text exposition written here at request-processing
          time, at most every [prom_every_s] seconds *)
  prom_every_s : float;  (** min seconds between prom-file refreshes *)
  flight_file : string;
      (** flight-recorder dump target for crashes, RSS sheds and the
          [dump] op, the only file it writes (default ["flight.json"]) *)
  flight : bool;
      (** enable the always-on flight recorder at {!create}; independent
          of the obs level (default [true]) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t

val load_files : t -> (string * string) list -> unit
(** Load the initial subject (e.g. from [pinpoint serve FILE...]) and
    write the first epoch snapshot.  Raises front-end errors on bad
    input. *)

val recover : t -> bool
(** Warm restart: load the epoch snapshot from [snapshot_dir] and replay
    whole journal lines (a torn tail line ends the replay).  Returns
    [false] when there is nothing (or nothing readable) to recover. *)

val handle_line : t -> string -> string * [ `Continue | `Stop ]
(** One request line -> one response line.  Never raises: every failure
    mode is an ["ok": false] response.  [`Stop] is returned for the
    [shutdown] op.  Exposed so tests and custom transports can drive the
    server without sockets.

    Each request is assigned an id (["r000001"], …) installed as the
    ambient {!Pinpoint_obs.Obs} request context for the whole dispatch
    and stamped into the response (["request"] field); the id sequence
    depends only on request order, so responses are byte-identical at
    every obs level.  Ops: [check] (default), [status] (with the
    process's per-op, check, error, RSS-shed and rung counts, read from
    the registry), [metrics] (live rolling-window + lifetime snapshot;
    ["format":"prometheus"] for text exposition), [dump] (flight-recorder
    dump to [flight_file], also returned with ["inline":true]; a request
    that names a ["path"] is refused and writes nothing; or
    ["what":"trace"] + ["request_id"] for a per-request Chrome trace
    slice), [shutdown].  An optional request field of the wrong type
    (a [check]'s [checkers], [deadline_s], [solver_budget_s] or
    [solver_conflicts]; a [metrics] [format] other than ["json"] or
    ["prometheus"]) is refused with a ["bad request: …"] error before
    any state changes; an absent one keeps its default. *)

val rss_mb : unit -> float
(** Resident set size via /proc/self/statm (major-heap size as the
    fallback on non-procfs systems). *)

val serve_channels : t -> in_channel -> out_channel -> [ `Stop | `Eof ]
(** Answer request lines from the input channel on the output channel,
    one at a time on the calling domain: each response is written and
    flushed before the next line is read.  Returns [`Stop] after a
    [shutdown] request, leaving the lines after it unread, and [`Eof] at
    the end of input (a read error counts as the end) or when a response
    cannot be written (the client hung up; with SIGPIPE ignored, the
    write raises [Sys_error]). *)

val serve_stdio : t -> unit
(** {!serve_channels} over stdin and stdout. *)

val serve_socket : t -> string -> unit
(** Bind a Unix-domain socket at the given path and serve one connection
    at a time with {!serve_channels} until a [shutdown] request; the
    socket file is removed on exit. *)
