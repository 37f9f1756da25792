(* What every workload shares: the stepping loop that drives the
   simulation phase by phase, the benchmark's own spans around its calls
   into the program, and the layer counters read at the window's edges.

   Nothing here reaches inside [lib/]: event counts come from driving
   [Sim.Loop.step] one event at a time, and every layer figure is read
   through the public accessors of [Snap.Host], [Pony.Express],
   [Engine], [Nic], [Fabric], [Cpu.Sched] and [Stats.Registry]. *)

module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

let wall () = Unix.gettimeofday ()

(* -- Spans -------------------------------------------------------------

   A span times one call the benchmark makes into the program.  Calls
   made from a simulated thread ([Pony.Express.send_message],
   [connect]) suspend inside (their modeled CPU cost and sleeps are
   effects), and other events run before they return.  Their self time
   is therefore the part of the calling step after the call began plus
   the part of the resuming step before it returned; the steps in
   between belong to other work.  A resumption in an intermediate step
   (connect's syscall cost before its setup sleep) is not seen; it runs
   no program code beyond the effect itself.  Off unless [tracing]. *)

let tracing = ref false
let step_seq = ref 0
let step_start = ref 0.0

type span = { t0 : float; seq0 : int; mutable first_end : float }

let no_span = { t0 = 0.0; seq0 = -1; first_end = 0.0 }
let awaiting_end : span list ref = ref []

type span_stat = { sp_name : string; mutable sp_ns : int list }

let span_stats : span_stat list ref = ref []

let span_stat name =
  match List.find_opt (fun s -> s.sp_name = name) !span_stats with
  | Some s -> s
  | None ->
      let s = { sp_name = name; sp_ns = [] } in
      span_stats := s :: !span_stats;
      s

let reset_spans () = List.iter (fun s -> s.sp_ns <- []) !span_stats

let span_begin () =
  if not !tracing then no_span
  else begin
    let s = { t0 = wall (); seq0 = !step_seq; first_end = 0.0 } in
    awaiting_end := s :: !awaiting_end;
    s
  end

let span_end stat s =
  if s != no_span then begin
    let t1 = wall () in
    let self =
      if s.seq0 = !step_seq then t1 -. s.t0
      else s.first_end -. s.t0 +. (t1 -. !step_start)
    in
    stat.sp_ns <- int_of_float (self *. 1e9) :: stat.sp_ns
  end

(* -- Driving the loop --------------------------------------------------- *)

let events = ref 0
let pending_peak = ref 0

(* Run single events until [stop ()] holds or the queue empties.  The
   traced variant also closes spans' first segments and samples the
   pending-event peak; the plain one adds nothing to the loop. *)
let drive loop stop =
  if not !tracing then
    while (not (stop ())) && Loop.step loop do
      incr events
    done
  else begin
    let continue = ref true in
    while !continue && not (stop ()) do
      step_start := wall ();
      continue := Loop.step loop;
      if !continue then begin
        incr events;
        let p = Loop.pending_events loop in
        if p > !pending_peak then pending_peak := p
      end;
      (match !awaiting_end with
      | [] -> ()
      | l ->
          let e = wall () in
          List.iter (fun s -> s.first_end <- e) l;
          awaiting_end := []);
      incr step_seq
    done
  end

(* -- Layer counters ------------------------------------------------------ *)

type snap = {
  s_vnow : Time.t;
  s_events : int;
  s_minor : float;
  s_promoted : float;
  s_majors : int;
  s_snap_ns : int;
  s_app_ns : int;
  s_switches : float;
  s_steps : int;
  s_tx : int;
}

let sum_hosts hosts f = Array.fold_left (fun a h -> a + f h) 0 hosts

let engines (h : Snap.Host.t) = Engine.engines h.Snap.Host.group

let gauge_sum name =
  List.fold_left
    (fun acc m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Gauge g when m.Stats.Registry.m_name = name ->
          acc +. Stats.Gauge.value g
      | _ -> acc)
    0.0
    (Stats.Registry.snapshot ())

(* Every histogram registered under [name], merged. *)
let merged_hist name =
  let dst = Stats.Histogram.create () in
  List.iter
    (fun m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Histogram h when m.Stats.Registry.m_name = name ->
          Stats.Histogram.merge_into ~src:h ~dst
      | _ -> ())
    (Stats.Registry.snapshot ());
  dst

let take loop hosts =
  let _, promoted, _ = Gc.counters () in
  {
    s_vnow = Loop.now loop;
    s_events = !events;
    s_minor = Gc.minor_words ();
    s_promoted = promoted;
    s_majors = (Gc.quick_stat ()).Gc.major_collections;
    s_snap_ns = sum_hosts hosts Snap.Host.snap_cpu_ns;
    s_app_ns = sum_hosts hosts Snap.Host.app_cpu_ns;
    s_switches = gauge_sum "cpu_core_context_switches";
    s_steps =
      sum_hosts hosts (fun h ->
          List.fold_left (fun a e -> a + Engine.steps e) 0 (engines h));
    s_tx = sum_hosts hosts (fun h -> Nic.tx_count h.Snap.Host.nic);
  }

(* -- One workload instance ----------------------------------------------

   A workload builds an [inst] and the harness drives it through four
   phases, each ended by a condition the simulation itself makes true:
   set-up (hosts, clients and every connection), warm-up, the measured
   window, and the drain that lets every attempted op resolve. *)

type outcome = {
  attempted : int;  (** ops submitted over the whole instance *)
  failed : int;  (** of those, resolved with a status other than Ok *)
  w_ok : int;  (** Ok ops counted in the window *)
  w_failed : int;
  w_bits : float;  (** payload bits of the window's Ok ops *)
  lat : int array;  (** window latency samples, ns, failed = [miss_ns] *)
  statuses : (string * int) list;  (** every resolution, by status *)
  checks : (string * bool) list;
  conns_dead : int;
}

type inst = {
  loop : Loop.t;
  hosts : Snap.Host.t array;
  fabric : Fabric.t;
  cap : Time.t;  (** virtual-time cap: reaching it fails the run *)
  ready : unit -> bool;  (** every connection is up *)
  window_open : unit -> bool;
  window_closed : unit -> bool;
  drained : unit -> bool;
  stop_issuing : unit -> unit;
  finish : unit -> outcome;
}

(* Failed ops count as missing every latency limit. *)
let miss_ns = Time.sec 1

(* Timed host construction: the [snap.host_create] span. *)
let host_create_stat = span_stat "snap.host_create"

let create_host ~loop ~fabric ~directory ~addr ?cores ?nic_config ?mode
    ?engines () =
  let sp = span_begin () in
  let h =
    Snap.Host.create ~loop ~fabric ~directory ~addr ?cores ?nic_config ?mode
      ?engines ()
  in
  span_end host_create_stat sp;
  h

(* Cumulative status counts, keyed by status name. *)
let count_status tbl (s : Pony.Wire.status) =
  let k = Pony.Wire.status_to_string s in
  match Hashtbl.find_opt tbl k with
  | Some r -> incr r
  | None -> Hashtbl.add tbl k (ref 1)

let status_list tbl =
  List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl [])

(* A growable int buffer for latency samples. *)
type samples = { mutable buf : int array; mutable n : int }

let samples () = { buf = Array.make 4096 0; n = 0 }

let add_sample s v =
  if s.n = Array.length s.buf then begin
    let b = Array.make (2 * s.n) 0 in
    Array.blit s.buf 0 b 0 s.n;
    s.buf <- b
  end;
  s.buf.(s.n) <- v;
  s.n <- s.n + 1

let sorted s =
  let a = Array.sub s.buf 0 s.n in
  Array.sort compare a;
  a

(* -- One repetition -------------------------------------------------------- *)

type rep = {
  setup_wall : float;  (** per-instance set-up wall time, batch mean *)
  setup_events : int;
  w0 : snap;
  w1 : snap;
  window_wall : float;
  total_wall : float;
  out : outcome;
  pool_ok : bool;
  capped : bool;
  last : inst;
}

let phase inst cond =
  let capped = ref false in
  let h = Loop.at inst.loop inst.cap (fun () -> capped := true) in
  drive inst.loop (fun () -> !capped || cond ());
  Loop.cancel h;
  !capped

(* Build [batch] instances back to back, each up to its window, and run
   the last one through.  The earlier builds only lengthen the timed
   set-up phase, so that a set-up of a few milliseconds is still timed
   over a phase long enough to read steadily. *)
let run_rep ~batch ~build =
  Gc.full_major ();
  let t0 = wall () in
  let rec builds k capped =
    Stats.Registry.clear ();
    let e0 = !events in
    let inst = build () in
    let capped = phase inst inst.ready || capped in
    if k > 1 then builds (k - 1) capped else (inst, !events - e0, capped)
  in
  let inst, setup_events, capped_setup = builds batch false in
  let t_ready = wall () in
  let capped_warm = phase inst inst.window_open in
  (* Counters are read outside the timed window. *)
  let w0 = take inst.loop inst.hosts in
  let t_open = wall () in
  let capped_win = phase inst inst.window_closed in
  let t_close = wall () in
  let w1 = take inst.loop inst.hosts in
  inst.stop_issuing ();
  let capped_drain = phase inst inst.drained in
  let total_wall = wall () -. t0 in
  let out = inst.finish () in
  let pool_ok =
    Array.for_all
      (fun h -> Memory.Pool.check_quiesced (PE.op_pool h.Snap.Host.pony) = None)
      inst.hosts
  in
  {
    setup_wall = (t_ready -. t0) /. float_of_int batch;
    setup_events;
    w0;
    w1;
    window_wall = t_close -. t_open;
    total_wall;
    out;
    pool_ok;
    capped = capped_setup || capped_warm || capped_win || capped_drain;
    last = inst;
  }
