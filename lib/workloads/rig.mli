(** Set-up and teardown shared by the robustness workloads (chaos,
    chaos_upgrade, overload, partition, tenants, churn, hostile).

    Every one of them builds the same rig — a fresh invariant scope, a
    seeded event loop with the checker bound to it, a fabric, one Pony
    directory and hosts [0..n-1] in address order — and tears it down the
    same way: evaluate every invariant at quiesce, then require every
    host's op pool to be empty. *)

type t = {
  loop : Sim.Loop.t;
  fabric : Fabric.t;
  hosts : Snap.Host.t array;  (** Indexed by address. *)
}

val create :
  seed:int ->
  tie_salt:int ->
  mode:Engine.mode ->
  ?poll_period:Sim.Time.t ->
  ?keepalive:Pony.Express.keepalive ->
  ?op_pool_bytes:(int -> int) ->
  int ->
  t
(** [create ~seed ~tie_salt ~mode n] builds an [n]-host rig.
    [op_pool_bytes addr] sizes each host's op pool; the other options
    are passed to every {!Snap.Host.create}. *)

val finish : t -> int
(** Run {!Check.Invariant.quiesce}, then {!Memory.Pool.assert_quiesced}
    on every host's op pool.  Returns the op-pool bytes still charged
    across all hosts before the assertion (0 whenever it returns). *)

val fault_log_lines : Buffer.t -> Fault.Log.t -> unit
(** Append one ["at kind detail"] line per log entry, with packet-id
    tokens ([pkt#N]) dropped from the detail: which of two same-time
    packets draws the lower id is labelling the perturbation sweep
    deliberately reorders, while drop times and counts are not. *)

val counter_digest : (string * int) list -> string
(** Hex MD5 of one ["name=value"] line per counter, in order: the
    fingerprint of workloads that fold semantic counters only. *)

val engine_batch_cost_ns : unit -> int
(** Modeled CPU burned inside engine batches, summed over every
    [engine_batch_cost_ns] histogram in {!Stats.Registry}; callers
    measure deltas across a window. *)
