(** The robustness workloads as one table.

    Each of chaos, chaos_upgrade, overload, partition, tenants, churn
    and hostile contributes one entry: its full-size and reduced-size
    configs, an optional comparison run, and a function turning a run's
    result into the perf-row inputs, named checks and report lines.  The
    bench sections, the determinism sweep and the tier-1 scenario test
    all iterate {!all}; {!execute} owns everything they used to repeat
    per workload: resetting global telemetry, the measurement window,
    the determinism rerun and the check naming.

    Adding a scenario means adding one entry to {!all}; see DESIGN.md
    ("Scenario table"). *)

type t
(** One scenario: a workload with its full- and reduced-size configs,
    an optional comparison run, its named checks and report lines, and
    its sabotage cases (see scenario.ml for the fields). *)

val all : t list
val name : t -> string
val title : t -> string

type row = {
  section : string;
  row_ops : int;
  row_goodput_gbps : float;
  p50_ns : int;
  p99_ns : int;
  cpu_ns_per_op : float;  (** Modeled engine batch cost per op. *)
  gc_words_per_op : float;  (** Minor-heap words allocated per op. *)
}

type result = {
  row : row;
  checks : (string * bool) list;
      (** Prefixed ["NAME.CHECK"]; ends with ["NAME.deterministic"]. *)
  report : (string * string) list;
}

val execute : ?reduced:bool -> t -> result
(** Run one scenario: clear {!Stats.Registry} and start a fresh
    {!Sim.Optrace} capture; run the comparison config, if any, and a
    reference run of the measured config; clear both again; then run the
    measured config inside the CPU/GC window and build its outcome.  The
    registry and the attribution capture therefore describe the measured
    run alone when [execute] returns.  [NAME.deterministic] holds when
    the reference and measured fingerprints are byte-identical.
    [reduced] (default [false]) runs the tier-1 test's size instead of
    the full one. *)

val sweep_run : t -> seed:int -> salt:int -> string
(** Fingerprint of one reduced-size run; the sweep's [run] argument. *)

val sabotage_runs : t -> (string * string option) list
(** Run each sabotage case with its flag armed: [(flag, Some msg)] when
    the checker raised {!Check.Invariant.Violation} [msg], [None] when
    the sabotage went unnoticed.  Each run gets a fresh attribution
    capture (the [skip_op_attribution] case needs one); checking must be
    enabled. *)
