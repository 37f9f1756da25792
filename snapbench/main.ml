(* The repository benchmark.

     main.exe --workload stream|mesh|rack --seed N --seconds S --trace 0|1

   A run cycles through the workload's input sets, derived from --seed,
   until --seconds of wall-clock time are spent.  The modeled metrics
   and the simulator's work counts pool the first pass over the sets;
   every later repetition of a set must reproduce them byte for byte, or
   the run fails.  The wall-clock metrics are medians over the timed
   repetitions, each timed over a phase that lasts seconds and scaled to
   the host's reference speed (see Calib).

   --trace 0 prints the end-to-end metrics.  --trace 1 runs the
   instance once untraced and once with Sim.Optrace capture and the
   benchmark's own call spans on, and prints the per-layer metrics.
   The last line of output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

module H = Harness
module PE = Pony.Express

type workload = {
  name : string;
  build : seed:int -> unit -> H.inst;
  batch : int;  (** instances built per timed set-up phase *)
  sets : int;  (** input sets pooled into the modeled metrics *)
}

let workloads =
  [
    { name = "stream"; build = Stream.build; batch = 1500; sets = 2 };
    { name = "mesh"; build = Mesh.build; batch = 1; sets = 4 };
    { name = "rack"; build = Rack.build; batch = 3; sets = 6 };
  ]

(* The first repetition is a warm-up: it grows the heap, so its
   wall-clock figures are dropped (its work counts are the reference the
   later ones must repeat).  At least [min_timed] more are timed. *)
let min_timed = 3

(* Optrace's capture size as the bench CLI sets it; the benchmark does
   not enlarge it, so drop-oldest eviction shows in trace.dropped_frac. *)
let optrace_capture = 8192

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartile spread as a share of the median, as statistics.quantiles
   (n=4, exclusive method) computes the quartiles. *)
let iqr_share l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then 0.0
  else begin
    let q p =
      let pos = p *. float_of_int (n + 1) in
      let j = truncate pos in
      let j = max 1 (min (n - 1) j) in
      let frac = pos -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. frac)
    in
    (q 0.75 -. q 0.25) /. median l
  end

(* Nearest-rank quantile of sorted samples. *)
let quantile (a : int array) p =
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let fi = float_of_int

(* -- End-to-end metrics ------------------------------------------------- *)

(* Modeled and deterministic metrics, pooled over the windows of [reps]
   (one per input set). *)
let modeled (reps : H.rep list) =
  let sum f = List.fold_left (fun a (r : H.rep) -> a +. f r) 0.0 reps in
  let delta f = sum (fun r -> fi (f r.H.w1 - f r.H.w0)) in
  let ok = sum (fun r -> fi r.H.out.H.w_ok) in
  let failed = sum (fun r -> fi r.H.out.H.w_failed) in
  let bits = sum (fun r -> r.H.out.H.w_bits) in
  let lat = Array.concat (List.map (fun (r : H.rep) -> r.H.out.H.lat) reps) in
  Array.sort compare lat;
  [
    ("events_per_op", delta (fun s -> s.H.s_events) /. ok, "events");
    ("alloc_words_per_op", sum (fun r -> r.H.w1.H.s_minor -. r.H.w0.H.s_minor) /. ok, "words");
    ("goodput_gbps", bits /. delta (fun s -> s.H.s_vnow), "Gbit/s");
    ("gbps_per_core", bits /. delta (fun s -> s.H.s_snap_ns), "Gbit/s");
    ("p50_us", fi (quantile lat 0.50) /. 1e3, "us");
    ("p99_us", fi (quantile lat 0.99) /. 1e3, "us");
    ("ok_ratio", ok /. (ok +. failed), "ratio");
  ]

let ops_per_s (r : H.rep) =
  fi r.H.out.H.w_ok /. r.H.window_wall

let heap_peak_mb () =
  fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* -- Per-layer metrics ---------------------------------------------------- *)

let hist_q name p = Stats.Histogram.quantile_interp (H.merged_hist name) p

(* Layer figures read from the registry and the layers' accessors; call
   right after the repetition, before the next one clears the registry. *)
let layer_counts (r : H.rep) =
  let i = r.H.last in
  let hosts = i.H.hosts in
  let o = r.H.out in
  let ok = fi (max 1 o.H.w_ok) in
  let win_ns = fi (r.H.w1.H.s_vnow - r.H.w0.H.s_vnow) in
  let d f = fi (f r.H.w1 - f r.H.w0) in
  let pony h = h.Snap.Host.pony in
  let flows = List.concat_map (fun h -> PE.flow_stats (pony h)) (Array.to_list hosts) in
  let delivered = List.fold_left (fun a (_, d, _) -> a + d) 0 flows in
  let retx = List.fold_left (fun a (_, _, x) -> a + x) 0 flows in
  let maxh f = Array.fold_left (fun a h -> max a (f h)) 0 hosts in
  [
    ("sim.setup_events", fi r.H.setup_events, "events");
    ("gc.promoted_words_per_op", (r.H.w1.H.s_promoted -. r.H.w0.H.s_promoted) /. ok, "words");
    ("gc.major_collections", d (fun s -> s.H.s_majors), "count");
    ("cpu.snap_cores", d (fun s -> s.H.s_snap_ns) /. win_ns, "cores");
    ("cpu.app_cores", d (fun s -> s.H.s_app_ns) /. win_ns, "cores");
    ("cpu.context_switches_per_op", (r.H.w1.H.s_switches -. r.H.w0.H.s_switches) /. ok, "count");
    ("engine.steps_per_op", d (fun s -> s.H.s_steps) /. ok, "count");
    ("engine.batch_cost_p99_ns", hist_q "engine_batch_cost_ns" 0.99, "ns");
    ("engine.sched_delay_p99_us", hist_q "engine_sched_delay_ns" 0.99 /. 1e3, "us");
    ("nic.tx_pkts_per_op", d (fun s -> s.H.s_tx) /. ok, "count");
    ("nic.rx_dropped", fi (H.sum_hosts hosts (fun h -> Nic.rx_dropped h.Snap.Host.nic)), "count");
    ("fabric.drops", fi (Fabric.dropped i.H.fabric), "count");
    ( "fabric.port_queue_peak_kb",
      fi (maxh (fun h -> Fabric.port_max_queue_bytes i.H.fabric ~addr:(Nic.addr h.Snap.Host.nic)))
      /. 1024.0,
      "KiB" );
    ("pony.retx_ratio", fi retx /. fi (max 1 delivered), "ratio");
    ("pony.rtt_p99_us", hist_q "pony_flow_rtt_ns" 0.99 /. 1e3, "us");
    ("pony.flight_p99", hist_q "pony_flow_flight" 0.99, "packets");
    ("pony.conns_dead", fi o.H.conns_dead, "count");
    ( "memory.op_pool_peak_kb",
      fi (maxh (fun h -> Memory.Pool.high_watermark (PE.op_pool (pony h)))) /. 1024.0,
      "KiB" );
    ( "overload.refused",
      fi
        (H.sum_hosts hosts (fun h ->
             let p = pony h in
             PE.quota_rejected p + PE.ops_shed p + PE.ops_expired p + PE.busy_nacks p)),
      "count" );
    ("ops.fail_ratio", fi o.H.w_failed /. fi (max 1 (o.H.w_ok + o.H.w_failed)), "ratio");
  ]

let stage_quantiles () =
  List.concat_map
    (fun i ->
      let s = Sim.Optrace.stage_name (Sim.Optrace.stage_of_index i) in
      let q p = hist_q ("op_stage_" ^ s) p /. 1e3 in
      [
        (Printf.sprintf "stage.%s.p50_us" s, q 0.50, "us");
        (Printf.sprintf "stage.%s.p99_us" s, q 0.99, "us");
      ])
    (List.init (Sim.Optrace.n_stages - 1) (fun i -> i + 1))

let span_median name =
  let s = H.span_stat name in
  median (List.map fi s.H.sp_ns)

(* -- Runs ------------------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let fmt_metric (n, v, u) = Printf.sprintf "%s=%.17g %s" n v u

let fingerprint r =
  let o = r.H.out in
  String.concat ";"
    (List.map fmt_metric (modeled [ r ])
    @ [
        Printf.sprintf "attempted=%d failed=%d" o.H.attempted o.H.failed;
        String.concat "," (List.map (fun (k, n) -> Printf.sprintf "%s:%d" k n) o.H.statuses);
      ])

let rep_checks (r : H.rep) =
  r.H.out.H.checks
  @ [ ("op_pools_quiesced", r.H.pool_ok); ("finished_before_cap", not r.H.capped) ]

let print_checks w checks =
  List.iter
    (fun (n, ok) -> Printf.printf "%s check %s: %s\n" w n (if ok then "ok" else "FAILED"))
    checks

(* Repetition [k] (from 0) runs input set [k mod w.sets]. *)
let set_seed seed set = (seed * 1000) + set

type timed = {
  rep : H.rep;
  fp : string;
  rchecks : (string * bool) list;
  kernel_s : float;  (** {!Calib.measure} right after the repetition *)
}

let untraced w ~seed ~seconds =
  let t0 = H.wall () in
  let heap = ref 0.0 in
  let rec go k acc =
    (* Repetition 0 builds one instance only: it is not timed, and the
       heap peak read after it is that of one instance, not of the
       garbage a batch of set-ups leaves for the collector. *)
    let batch = if k = 0 then 1 else w.batch in
    let r = H.run_rep ~batch ~build:(w.build ~seed:(set_seed seed (k mod w.sets))) in
    if k = 0 then heap := heap_peak_mb ();
    let kernel_s = Calib.measure () in
    Printf.printf
      "%s rep %d (set %d): setup %.4f s, window %.3f s, %.0f ops/s, kernel %.4f s, total %.2f s\n%!"
      w.name k (k mod w.sets) r.H.setup_wall r.H.window_wall (ops_per_s r) kernel_s
      r.H.total_wall;
    let acc = { rep = r; fp = fingerprint r; rchecks = rep_checks r; kernel_s } :: acc in
    if k < w.sets || k < min_timed || H.wall () -. t0 < seconds then go (k + 1) acc
    else List.rev acc
  in
  let reps = Array.of_list (go 0 []) in
  let pooled = List.init w.sets (fun i -> reps.(i).rep) in
  let repeat_ok =
    Array.for_all Fun.id (Array.mapi (fun k t -> t.fp = reps.(k mod w.sets).fp) reps)
  in
  let all = Array.to_list reps in
  let checks =
    List.map
      (fun (n, _) -> (n, List.for_all (fun t -> List.assoc n t.rchecks) all))
      reps.(0).rchecks
    @ [ ("deterministic_across_repetitions", repeat_ok) ]
  in
  (* Wall-clock figures at the host's reference speed.  The speed is
     taken over the whole run: the drift it corrects outlasts a
     repetition, and one kernel measurement jitters. *)
  let timed = List.tl all in
  let speed = Calib.factor (List.map (fun t -> t.kernel_s) all) in
  let setups = List.map (fun t -> t.rep.H.setup_wall) timed in
  let rates = List.map (fun t -> ops_per_s t.rep) timed in
  Printf.printf
    "%s spread over %d timed repetitions: setup_s iqr %.1f%%, sim_ops_per_s iqr %.1f%%; host factor %.3f\n"
    w.name (List.length timed) (100.0 *. iqr_share setups) (100.0 *. iqr_share rates) speed;
  let m = modeled pooled in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" w.name n v u) m;
  let total f = List.fold_left (fun a (r : H.rep) -> a + f r.H.out) 0 pooled in
  print_checks w.name checks;
  {
    correct = List.for_all snd checks;
    attempted = total (fun o -> o.H.attempted);
    failed = total (fun o -> o.H.failed);
    metrics =
      [
        ("setup_s", median setups /. speed, "s");
        ("sim_ops_per_s", median rates *. speed, "1/s");
      ]
      @ List.filter (fun (n, _, _) -> n <> "ok_ratio") m
      @ [ ("heap_peak_mb", !heap, "MiB") ]
      @ List.filter (fun (n, _, _) -> n = "ok_ratio") m;
  }

let traced w ~seed =
  let untraced_rep () =
    let r = H.run_rep ~batch:1 ~build:(w.build ~seed:(set_seed seed 0)) in
    (r, layer_counts r)
  in
  (* The first repetition pays for growing the heap; the second is the
     baseline the traced one is compared with. *)
  ignore (untraced_rep ());
  let k0 = Calib.measure () in
  let base, base_layers = untraced_rep () in
  let k1 = Calib.measure () in
  H.reset_spans ();
  H.tracing := true;
  H.pending_peak := 0;
  Sim.Optrace.set_capture (Some optrace_capture);
  let tr = H.run_rep ~batch:1 ~build:(w.build ~seed:(set_seed seed 0)) in
  let tr_layers = layer_counts tr in
  let stages = stage_quantiles () in
  let dropped = Sim.Optrace.dropped () in
  let records = dropped + List.length (Sim.Optrace.completed ()) + Sim.Optrace.in_flight () in
  Sim.Optrace.set_capture None;
  H.tracing := false;
  (* Wall-clock layer figures at the host's reference speed, as for the
     end-to-end ones. *)
  let base_speed = Calib.factor [ k0; k1 ] in
  let tr_speed = Calib.factor [ k1; Calib.measure () ] in
  let mismatches =
    List.filter_map
      (fun ((n, a, u), (_, b, _)) ->
        if n = "alloc_words_per_op" || a = b then None
        else Some (Printf.sprintf "%s untraced %.17g traced %.17g %s" n a b u))
      (List.combine (modeled [ base ]) (modeled [ tr ]))
  in
  List.iter (fun m -> Printf.printf "%s traced modeled metric differs: %s\n" w.name m) mismatches;
  let win r = r.H.window_wall in
  let ev r = fi (r.H.w1.H.s_events - r.H.w0.H.s_events) in
  let layers =
    [
      ("sim.ns_per_event", win base *. 1e9 /. ev base /. base_speed, "ns");
      ("sim.pending_peak", fi !H.pending_peak, "events");
    ]
    @ base_layers
    @ [
        ("pony.send_call_ns", span_median "pony.send_message" /. tr_speed, "ns");
        ("pony.connect_call_us", span_median "pony.connect" /. 1e3 /. tr_speed, "us");
        ("snap.host_create_ms", span_median "snap.host_create" /. 1e6 /. tr_speed, "ms");
      ]
    @ stages
    @ [
        ("trace.overhead_ratio", tr.H.total_wall /. base.H.total_wall, "ratio");
        ("trace.dropped_frac", fi dropped /. fi (max 1 records), "ratio");
        ("trace.modeled_mismatches", fi (List.length mismatches), "count");
      ]
  in
  (* Work counts must not move with tracing either. *)
  let counts_equal =
    List.for_all2
      (fun (n, a, _) (_, b, _) -> a = b || n = "gc.promoted_words_per_op" || n = "gc.major_collections")
      base_layers tr_layers
  in
  let checks =
    rep_checks base @ rep_checks tr
    @ [ ("traced_work_counts_equal", counts_equal) ]
  in
  List.iter (fun (n, v, u) -> Printf.printf "%s %s %.6g %s\n" w.name n v u) layers;
  print_checks w.name checks;
  {
    correct = List.for_all snd checks;
    attempted = tr.H.out.H.attempted;
    failed = tr.H.out.H.failed;
    metrics = layers;
  }

let usage () =
  prerr_endline
    "usage: main.exe --workload stream|mesh|rack --seed N --seconds S --trace 0|1";
  exit 2

let () =
  if Array.to_list Sys.argv = [ Sys.argv.(0); Calib.child_flag ] then begin
    Calib.child ();
    exit 0
  end;
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: (("0" | "1") as v) :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let r = if !trace = 1 then traced w ~seed:!seed else untraced w ~seed:!seed ~seconds:!seconds in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" n v u)
          r.metrics));
  exit (if r.correct then 0 else 1)
