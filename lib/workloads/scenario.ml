module T = Sim.Time

(* What a scenario reports about its measured run. *)
type outcome = {
  ops : int;  (* ops the row normalizes by *)
  goodput_gbps : float;  (* 0 when the scenario has no goodput notion *)
  latencies : Stats.Histogram.t;  (* source of the row's p50/p99 *)
  steady : (float * float) option;
      (* an in-workload steady window's (engine ns/op, minor-GC
         words/op), replacing the harness window's figures *)
  checks : (string * bool) list;  (* unprefixed, e.g. "no_lost_ops" *)
  report : (string * string) list;
}

type ('c, 'r) spec = {
  name : string;  (* section name and check prefix *)
  title : string;
  config : 'c;  (* full size: the bench section and its perf row *)
  reduced : seed:int -> salt:int -> 'c;  (* the determinism sweep's size *)
  small : 'c option;
      (* the tier-1 test's size, when the sweep's seed-1 config is too
         small for every check to hold *)
  compare : ('c -> 'c) option;
      (* derives a comparison config (fault-free or uncontended
         baseline), run before and outside the measured run *)
  run : 'c -> 'r;
  fingerprint : 'r -> string;
  outcome : 'c -> compared:'r option -> 'r -> outcome;
      (* called right after the measured run, while the registry holds
         that run's metrics alone *)
  sabotage : (string * 'c) list;
      (* Check.Invariant sabotage flags, each with the config that must
         trip the checker while the flag is armed *)
}

type t = Scenario : ('c, 'r) spec -> t

(* -- Report and registry helpers ------------------------------------------ *)

let us h p = Printf.sprintf "%.1fus" (T.to_float_us (Stats.Histogram.percentile h p))
let ms t = Printf.sprintf "%.1fms" (T.to_float_ms t)

let nonzero counters =
  String.concat ", "
    (List.filter_map
       (fun (name, v) -> if v = 0 then None else Some (Printf.sprintf "%s=%d" name v))
       counters)

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0

(* Checks below read the registry, which [execute] leaves holding the
   measured run's metrics alone. *)
let metrics name =
  List.filter
    (fun m -> String.equal m.Stats.Registry.m_name name)
    (Stats.Registry.snapshot ())

let present names = List.for_all (fun n -> metrics n <> []) names

let total name =
  List.fold_left
    (fun acc m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Counter c -> acc +. float_of_int (Stats.Counter.value c)
      | Stats.Registry.Gauge g -> acc +. Stats.Gauge.value g
      | _ -> acc)
    0.0 (metrics name)

let positive names = List.map (fun n -> (n ^ "_positive", total n > 0.0)) names

let label_values name label =
  List.sort_uniq compare
    (List.filter_map (fun m -> List.assoc_opt label m.Stats.Registry.m_labels)
       (metrics name))

let totals names =
  List.map (fun n -> (n, Printf.sprintf "%.0f" (total n))) names

(* -- The table -------------------------------------------------------------- *)

let chaos =
  let module C = Chaos in
  Scenario
    {
      name = "chaos";
      title = "Availability under faults (Workloads.Chaos)";
      config = C.default_config;
      reduced =
        (fun ~seed ~salt ->
          { C.default_config with C.seed; tie_salt = salt; ops_per_client = 150 });
      small = None;
      compare = Some (fun c -> { c with C.plan = Fault.Plan.empty });
      run = C.run;
      fingerprint = C.fingerprint;
      sabotage =
        (let small = { C.default_config with C.ops_per_client = 50 } in
         (* Admission charges never released: the quiesce-time pool
            invariant must notice.  Then the dequeue stamp skips charging
            its stage: per-op attribution conservation must notice. *)
         [ ("skip_credit_release", small); ("skip_op_attribution", small) ]);
      outcome =
        (fun _ ~compared r ->
          let row name (x : C.result) =
            ( name,
              Printf.sprintf "p50 %s p99 %s p999 %s max %.1fus goodput %.2f Gbps"
                (us x.C.latencies 50.0) (us x.C.latencies 99.0)
                (us x.C.latencies 99.9)
                (T.to_float_us (Stats.Histogram.max_value x.C.latencies))
                x.C.goodput_gbps )
          in
          let baseline = Option.get compared in
          {
            ops = r.C.ops_completed;
            goodput_gbps = r.C.goodput_gbps;
            latencies = r.C.latencies;
            steady = None;
            checks = [ ("no_lost_ops", r.C.lost_ops = 0) ];
            report =
              [
                ( "ops",
                  Printf.sprintf "%d/%d completed, %d lost" r.C.ops_completed
                    r.C.ops_expected r.C.lost_ops );
                row "baseline" baseline;
                row "faulted" r;
                ( "goodput degradation",
                  Printf.sprintf "%.1f%%"
                    (C.goodput_degradation_pct ~baseline ~faulted:r) );
                ( "recovery",
                  Printf.sprintf "%d retransmits, %d corrupt drops caught, %d rx stalls"
                    r.C.retransmits r.C.corrupt_dropped r.C.rx_stalled );
                ("injected", nonzero r.C.fault_counters);
                ( "egress ports (addr drops max-queue-bytes)",
                  String.concat "; "
                    (List.map
                       (fun (a, d, q) -> Printf.sprintf "%d %d %d" a d q)
                       r.C.port_report) );
              ];
          });
    }

let chaos_upgrade =
  let module CU = Chaos_upgrade in
  Scenario
    {
      name = "chaos_upgrade";
      title = "Availability under upgrade (Workloads.Chaos_upgrade)";
      config = CU.default_config;
      reduced =
        (fun ~seed ~salt ->
          { CU.default_config with CU.seed; tie_salt = salt; ops_per_client = 250 });
      small = None;
      compare = None;
      run = CU.run;
      fingerprint = CU.fingerprint;
      sabotage = [];
      outcome =
        (fun cfg ~compared:_ r ->
          (* Echo workload: each completed op moves op_bytes out and the
             echo back, over the virtual time of the last completion. *)
          let goodput =
            if r.CU.completion_time = 0 then 0.0
            else
              float_of_int (r.CU.ops_completed * cfg.CU.op_bytes * 2 * 8)
              /. float_of_int r.CU.completion_time
          in
          let upgrade (addr, (u : Upgrade.report)) =
            ( Printf.sprintf "host %d %s" addr u.Upgrade.engine_name,
              Printf.sprintf "%s after %d attempt(s), brownout %s blackout %s"
                (match u.Upgrade.outcome with
                | Upgrade.Committed -> "committed"
                | Upgrade.Gave_up why -> "gave up (" ^ why ^ ")")
                u.Upgrade.attempts (ms u.Upgrade.brownout) (ms u.Upgrade.blackout) )
          in
          {
            ops = r.CU.ops_completed;
            goodput_gbps = goodput;
            latencies = r.CU.latencies;
            steady = None;
            checks =
              [
                ("no_lost_ops", r.CU.lost_ops = 0);
                ("groups_consistent", r.CU.groups_consistent);
              ];
            report =
              [
                ( "ops",
                  Printf.sprintf "%d/%d completed, %d lost" r.CU.ops_completed
                    r.CU.ops_expected r.CU.lost_ops );
                ( "latency",
                  Printf.sprintf "p50 %s p99 %s p999 %s" (us r.CU.latencies 50.0)
                    (us r.CU.latencies 99.0) (us r.CU.latencies 99.9) );
                ( "upgrade",
                  Printf.sprintf "%d committed, %d rollbacks, %d give-ups, max blackout %s"
                    r.CU.committed r.CU.rollbacks r.CU.give_ups (ms r.CU.max_blackout) );
              ]
              @ List.map upgrade
                  (List.concat_map
                     (fun (addr, rs) -> List.map (fun u -> (addr, u)) rs)
                     r.CU.reports)
              @ [
                  ("watchdog", nonzero r.CU.watchdog_counters);
                  ("flow resyncs", string_of_int r.CU.flow_resyncs);
                  ("injected", nonzero r.CU.fault_counters);
                  ("goodput", Printf.sprintf "%.2f Gbps" goodput);
                ];
          });
    }

let overload =
  let module O = Overload in
  let required =
    [
      "overload_ops_rejected";
      "overload_ops_shed";
      "overload_pressure_transitions";
      "overload_busy_nacks";
      "overload_op_pool_frac";
    ]
  in
  let nonzero_metrics =
    [ "overload_ops_rejected"; "overload_ops_shed"; "overload_pressure_transitions" ]
  in
  Scenario
    {
      name = "overload";
      title = "Overload protection (Workloads.Overload)";
      config = O.default_config;
      reduced =
        (fun ~seed ~salt ->
          { O.default_config with O.seed; tie_salt = salt; victim_ops = 60;
            stop_at = T.ms 10; run_cap = T.ms 40 });
      small = None;
      compare = Some (fun c -> { c with O.aggressors = 0 });
      run = O.run;
      fingerprint = O.fingerprint;
      sabotage = [];
      outcome =
        (fun cfg ~compared r ->
          let u = Option.get compared in
          {
            ops = r.O.victim_ok;
            goodput_gbps = r.O.victim_goodput_gbps;
            latencies = r.O.victim_latencies;
            steady = None;
            checks =
              [
                ("no_pool_leak", r.O.pool_leak_bytes = 0);
                ("no_exhausted_escapes", r.O.exhausted_escapes = 0);
                ("metrics_present", present required);
              ]
              @ positive nonzero_metrics;
            report =
              [
                ( "aggressors",
                  Printf.sprintf "%d offered -> %d ok, %d rejected, %d timed out, %d busy"
                    r.O.offered r.O.agg_ok r.O.agg_rejected r.O.agg_timed_out
                    r.O.agg_busy );
                ( "protection",
                  Printf.sprintf
                    "%d quota-rejected, %d shed at dequeue, %d expired, %d busy \
                     NACKs, %d rx pool drops"
                    r.O.quota_rejected r.O.ops_shed r.O.ops_expired r.O.busy_nacks
                    r.O.rx_pool_drops );
                ( "back-pressure",
                  Printf.sprintf "%d zero-window probes, %d pressure transitions"
                    r.O.zero_window_probes r.O.pressure_transitions );
                ( "victim",
                  Printf.sprintf
                    "%d/%d ok, goodput %.2f Gbps (uncontended %.2f, %.0f%% kept), \
                     p99 %s (uncontended %s)"
                    r.O.victim_ok cfg.O.victim_ops r.O.victim_goodput_gbps
                    u.O.victim_goodput_gbps
                    (pct r.O.victim_goodput_gbps u.O.victim_goodput_gbps)
                    (us r.O.victim_latencies 99.0) (us u.O.victim_latencies 99.0) );
              ]
              @ totals nonzero_metrics;
          });
    }

let partition =
  let module P = Partition in
  let required =
    [
      "conn_established";
      "conn_resets";
      "peer_conn_deaths";
      "peer_dead_ops";
      "peer_restarts";
      "peer_keepalive_probes";
    ]
  in
  let nonzero_metrics =
    [
      "conn_established";
      "peer_conn_deaths";
      "peer_dead_ops";
      "peer_restarts";
      "peer_keepalive_probes";
    ]
  in
  Scenario
    {
      name = "partition";
      title = "Peer failure and reconnect (Workloads.Partition)";
      config = P.default_config;
      reduced =
        (fun ~seed ~salt ->
          { P.default_config with P.seed; tie_salt = salt; ops_per_victim = 60;
            stop_at = T.ms 22; run_cap = T.ms 40 });
      (* The sweep's runs end before the server crash lands. *)
      small = Some P.default_config;
      compare = None;
      run = P.run;
      fingerprint = P.fingerprint;
      sabotage =
        [
          (* A dying conn forgets to reclaim: waiting ops are never failed
             and charges stay held.  Continuous streaming of large
             multi-chunk messages makes blackout edges cut messages
             mid-flight, so the receiver holds pool-charged reassembly
             state when the keepalive declares the conn dead. *)
          ( "skip_peer_reclaim",
            { P.default_config with P.ops_per_victim = 200; op_interval = T.us 0;
              bytes = 131072; stop_at = T.ms 22; run_cap = T.ms 40 } );
        ];
      outcome =
        (fun cfg ~compared:_ r ->
          (* Echoes move the op's bytes out and back; failed episodes move
             nothing that completes. *)
          let goodput =
            if r.P.last_echo_done = 0 then 0.0
            else
              float_of_int (r.P.echo_ok * cfg.P.bytes * 2 * 8)
              /. float_of_int r.P.last_echo_done
          in
          {
            ops = r.P.ops_resolved;
            goodput_gbps = goodput;
            latencies = r.P.latencies;
            steady = None;
            checks =
              [
                ( "no_op_hangs",
                  r.P.ops_resolved = r.P.ops_attempted && r.P.victims_finished = 2 );
                ("detection_within_bounds", r.P.detection_ok);
                ("no_pool_leak", r.P.pool_leak_bytes = 0);
                ("metrics_present", present required);
              ]
              @ positive nonzero_metrics
              @ [
                  ( "conn_deaths_on_2_hosts",
                    List.length (label_values "peer_conn_deaths" "host") >= 2 );
                ];
            report =
              [
                ( "ops",
                  Printf.sprintf
                    "%d attempted -> %d resolved (%d echo ok, %d echo timeouts, %d \
                     peer-dead, %d retry-exhausted, %d other)"
                    r.P.ops_attempted r.P.ops_resolved r.P.echo_ok r.P.echo_timeouts
                    r.P.peer_dead_failures r.P.retry_exhausted r.P.other_failures );
                ("victims finished", Printf.sprintf "%d/2" r.P.victims_finished);
                ( "lifecycle",
                  Printf.sprintf
                    "%d conns established, %d closed, %d resets sent, %d conn \
                     deaths, %d peer-dead ops"
                    r.P.conns_established r.P.conns_closed r.P.conn_resets
                    r.P.peer_deaths r.P.peer_dead_ops );
                ( "recovery",
                  Printf.sprintf
                    "%d reconnects, %d server registrations, server incarnation \
                     %d, %d peer restarts detected, %d stale drops, %d keepalive \
                     probes"
                    r.P.reconnects r.P.server_registrations r.P.server_incarnation
                    r.P.peer_restarts r.P.stale_drops r.P.keepalive_probes );
                ( "detection",
                  Printf.sprintf
                    "slowest failed op resolved in %.1fus (bound %.1fus); longest \
                     victim outage %s (bound %s)"
                    (T.to_float_us r.P.max_failed_resolution)
                    (T.to_float_us r.P.resolution_bound)
                    (ms r.P.max_outage) (ms r.P.outage_bound) );
                ( "clean-path latency",
                  Printf.sprintf "p50 %s p99 %s" (us r.P.latencies 50.0)
                    (us r.P.latencies 99.0) );
                ("injected", nonzero r.P.fault_counters);
                ("goodput", Printf.sprintf "%.2f Gbps" goodput);
              ]
              @ totals nonzero_metrics;
          });
    }

let tenants =
  let module G = Tenants in
  let required =
    [
      "tenant_tx_completed";
      "tenant_tx_rejected";
      "tenant_rx_delivered";
      "tenant_reclaimed_bytes";
      "tenant_ring_backlog";
    ]
  in
  let nonzero_metrics =
    [ "tenant_tx_completed"; "tenant_tx_rejected"; "tenant_rx_delivered" ]
  in
  let small =
    { G.default_config with G.tenants = 8; victim_ops = 4; aggressor_ops = 8;
      upgrade_at = None; force_detach_at = None; stop_at = T.ms 6;
      run_cap = T.ms 16 }
  in
  Scenario
    {
      name = "tenants";
      title = "Multi-tenant guest networking (Workloads.Tenants)";
      config = G.default_config;
      reduced =
        (fun ~seed ~salt ->
          { G.default_config with G.seed; tie_salt = salt; tenants = 24;
            victim_ops = 8; aggressor_ops = 20; stop_at = T.ms 8;
            run_cap = T.ms 20 });
      (* Uncontended baseline: same tenant population, aggressors silent. *)
      small = None;
      compare = Some (fun c -> { c with G.aggressor_ops = 0 });
      run = G.run;
      fingerprint = G.fingerprint;
      (* The backend forgets an op's bookkeeping (in-flight entry and
         admission charge); the tenant's detach-quiesce invariant must
         notice. *)
      sabotage = [ ("guest_skip_release", small) ];
      outcome =
        (fun _ ~compared r ->
          let u = Option.get compared in
          let exported = List.length (label_values "tenant_tx_completed" "tenant") in
          {
            ops = r.G.victim_ok;
            goodput_gbps = r.G.victim_goodput_gbps;
            latencies = r.G.victim_latencies;
            steady = None;
            checks =
              [
                ("all_detached", r.G.detached = r.G.n_tenants);
                ("no_pool_leak", r.G.pool_leak_bytes = 0);
                (* The blackout floor is 2x nic_filter_update (8 ms of NIC
                   filter reprogramming) regardless of state size;
                   "bounded" means the serialize term stays small. *)
                ("blackout_bounded", r.G.max_blackout < T.ms 15);
                ("metrics_present", present required);
                ("exported_all_tenants", exported >= r.G.n_tenants);
              ]
              @ positive nonzero_metrics;
            report =
              [
                ( "tenants",
                  Printf.sprintf "%d (%d victims, %d aggressors) on one host"
                    r.G.n_tenants r.G.n_victims r.G.n_aggressors );
                ( "victim",
                  Printf.sprintf
                    "%d ok, %d failed, %d retries; goodput %.2f Gbps (uncontended \
                     %.2f, %.0f%% kept), p99 %s (uncontended %s)"
                    r.G.victim_ok r.G.victim_failed r.G.victim_retries
                    r.G.victim_goodput_gbps u.G.victim_goodput_gbps
                    (pct r.G.victim_goodput_gbps u.G.victim_goodput_gbps)
                    (us r.G.victim_latencies 99.0) (us u.G.victim_latencies 99.0) );
                ( "aggressors",
                  Printf.sprintf
                    "%d completed, %d rejected by tenant quota, %d failed, %d cancelled"
                    r.G.agg_completed r.G.agg_rejected r.G.agg_failed
                    r.G.agg_cancelled );
                ( "rings",
                  Printf.sprintf "%d rx delivered, %d rx drops, %d posts bounced"
                    r.G.rx_delivered r.G.rx_drops r.G.tx_post_failures );
                ( "lifecycle",
                  Printf.sprintf "%d/%d detached (%d forced), %d bytes bulk-reclaimed"
                    r.G.detached r.G.n_tenants r.G.force_detached r.G.reclaimed_bytes );
                ( "upgrade",
                  Printf.sprintf
                    "%d committed, %d rollbacks, max blackout %.1fus, %d mux resyncs"
                    r.G.upgrade_committed r.G.upgrade_rollbacks
                    (T.to_float_us r.G.max_blackout) r.G.mux_resyncs );
                ("tenants exported", string_of_int exported);
              ]
              @ totals nonzero_metrics;
          });
    }

let churn =
  let module C = Churn in
  let reduced ~seed ~salt =
    { C.default_config with C.seed; tie_salt = salt; clients_per_side = 16;
      ops_per_driver = 12; stop_at = T.ms 30; run_cap = T.ms 60 }
  in
  Scenario
    {
      name = "churn";
      title = "Million-connection churn (Workloads.Churn)";
      config = C.default_config;
      reduced;
      (* With 12 ops per driver, early finishers start closing conns
         before the steady window opens. *)
      small = Some { (reduced ~seed:1 ~salt:0) with C.ops_per_driver = 40 };
      compare = None;
      run = C.run;
      fingerprint = C.fingerprint;
      sabotage = [];
      outcome =
        (fun _ ~compared:_ r ->
          {
            ops = r.C.ops_ok + r.C.burst_ok;
            goodput_gbps = C.goodput_gbps r;
            latencies = r.C.latencies;
            steady = Some (r.C.steady_cpu_ns_per_op, r.C.steady_gc_words_per_op);
            checks =
              [
                ( "all_conns_live",
                  r.C.live_at_steady = r.C.conns_target && r.C.ramp_failures = 0 );
                ("no_failed_ops", r.C.ops_failed = 0 && r.C.burst_failed = 0);
                ("no_pool_leak", r.C.pool_leak_bytes = 0);
              ];
            report =
              [
                ( "mesh",
                  Printf.sprintf "%d drivers x %d sinks = %d conns; live at steady: %d"
                    r.C.n_drivers r.C.n_drivers r.C.conns_target r.C.live_at_steady );
                ( "ops",
                  Printf.sprintf
                    "%d ok, %d failed, %d strays; storms: %d closes, %d reconnects, \
                     %d/%d burst ops ok"
                    r.C.ops_ok r.C.ops_failed r.C.stray_completions r.C.closes
                    r.C.reconnects r.C.burst_ok (r.C.burst_ok + r.C.burst_failed) );
                ( "steady window",
                  Printf.sprintf "%d ops, %.1f minor-GC words/op, %.1f engine ns/op"
                    r.C.steady_ops r.C.steady_gc_words_per_op r.C.steady_cpu_ns_per_op );
                ( "latency",
                  Printf.sprintf "p50 %s p99 %s; goodput %.2f Gbps" (us r.C.latencies 50.0)
                    (us r.C.latencies 99.0) (C.goodput_gbps r) );
                ( "lifecycle",
                  Printf.sprintf
                    "%d halves established, %d closed, %d resets, %d deaths"
                    r.C.conns_established r.C.conns_closed r.C.conn_resets
                    r.C.peer_deaths );
              ];
          });
    }

let hostile =
  let module H = Hostile in
  let required =
    [
      "tenant_quarantines";
      "tenant_quarantine_suspects";
      "guest_violations";
      "guest_unmatched_completions";
      "ring_post_bad_range";
    ]
  in
  let nonzero_metrics =
    [ "tenant_quarantines"; "tenant_quarantine_suspects"; "guest_violations" ]
  in
  Scenario
    {
      name = "hostile";
      title = "Hostile-guest hardening (Workloads.Hostile)";
      config = H.default_config;
      reduced =
        (fun ~seed ~salt ->
          { H.default_config with H.seed; tie_salt = salt; tenants = 12;
            victim_ops = 6 });
      (* Clean same-seed baseline: identical cohorts and schedule, empty
         fault plan. *)
      small = None;
      compare = Some (fun c -> { c with H.byzantine = false });
      run = H.run;
      fingerprint = H.fingerprint;
      (* Escalation stops short of quarantining: violations accrue past
         the threshold while the tenant stays attached; the
         [guest.quarantine] invariant must notice. *)
      sabotage =
        [
          ( "skip_tenant_quarantine",
            { H.default_config with H.tenants = 8; victim_ops = 4 } );
        ];
      outcome =
        (fun cfg ~compared r ->
          let clean = Option.get compared in
          let kept = pct r.H.victim_goodput_gbps clean.H.victim_goodput_gbps in
          let kinds = label_values "guest_violations" "reason" in
          {
            ops = r.H.victim_ok;
            goodput_gbps = r.H.victim_goodput_gbps;
            latencies = r.H.victim_latencies;
            steady = None;
            checks =
              [
                ( "all_attackers_quarantined",
                  r.H.attackers_quarantined = r.H.n_attackers );
                ("detection_within_bound", r.H.detection_ok);
                ("no_victim_violations", r.H.victim_violations = 0);
                ("victim_goodput_kept", kept >= 80.0);
                ("all_detached", r.H.detached = r.H.n_tenants);
                ("no_pool_leak", r.H.pool_leak_bytes = 0);
                ("metrics_present", present required);
              ]
              @ positive nonzero_metrics
              @ [ ("violation_kinds_ge_4", List.length kinds >= 4) ];
            report =
              [
                ( "tenants",
                  Printf.sprintf "%d (%d victims, %d byzantine attackers)"
                    r.H.n_tenants r.H.n_victims r.H.n_attackers );
                ( "victim",
                  Printf.sprintf
                    "%d ok, %d failed, %d retries; goodput %.2f Gbps (clean %.2f, \
                     %.0f%% kept, need >= 80%%), p99 %s (clean %s)"
                    r.H.victim_ok r.H.victim_failed r.H.victim_retries
                    r.H.victim_goodput_gbps clean.H.victim_goodput_gbps kept
                    (us r.H.victim_latencies 99.0) (us clean.H.victim_latencies 99.0)
                );
                ( "attacks",
                  Printf.sprintf "%d byzantine windows launched; violations: %s"
                    r.H.guest_attacks (nonzero r.H.violations) );
                ( "verdicts",
                  Printf.sprintf
                    "%d descs completed Failed, %d cancelled, %d rx drops, %d \
                     unmatched completions, %d checked posts refused"
                    r.H.atk_failed r.H.atk_cancelled r.H.rx_drops
                    r.H.unmatched_completions r.H.post_bad_range );
                ( "containment",
                  Printf.sprintf
                    "%d/%d attackers quarantined (%d suspect escalations), worst \
                     detection %.1fus (bound %.1fus)"
                    r.H.attackers_quarantined r.H.n_attackers r.H.suspects
                    (T.to_float_us r.H.max_detection)
                    (T.to_float_us cfg.H.detect_bound) );
                ("violation kinds", String.concat "," kinds);
              ]
              @ totals nonzero_metrics;
          });
    }

let all = [ chaos; chaos_upgrade; overload; partition; tenants; churn; hostile ]
let name (Scenario s) = s.name
let title (Scenario s) = s.title

(* -- The harness ------------------------------------------------------------ *)

type row = {
  section : string;
  row_ops : int;
  row_goodput_gbps : float;
  p50_ns : int;
  p99_ns : int;
  cpu_ns_per_op : float;
  gc_words_per_op : float;
}

type result = {
  row : row;
  checks : (string * bool) list;
  report : (string * string) list;
}

(* Attribution capacity for every scenario run; the perf rows, stage
   breakdowns and slow-op exemplars all come from attributed runs. *)
let optrace_cap = 8192

let execute ?(reduced = false) (Scenario s) =
  let cfg =
    match (reduced, s.small) with
    | false, _ -> s.config
    | true, Some small -> small
    | true, None -> s.reduced ~seed:1 ~salt:0
  in
  Stats.Registry.clear ();
  Sim.Optrace.set_capture (Some optrace_cap);
  let compared = Option.map (fun derive -> s.run (derive cfg)) s.compare in
  let reference = s.run cfg in
  Stats.Registry.clear ();
  Sim.Optrace.clear ();
  (* The window holds the measured run alone: each read is sequenced so
     neither registry walk is counted as allocation. *)
  let cost0 = Rig.engine_batch_cost_ns () in
  let gc0 = Gc.minor_words () in
  let r = s.run cfg in
  let gc1 = Gc.minor_words () in
  let cost1 = Rig.engine_batch_cost_ns () in
  let o = s.outcome cfg ~compared r in
  let per x = x /. float_of_int (max 1 o.ops) in
  let cpu_ns_per_op, gc_words_per_op =
    match o.steady with
    | Some steady -> steady
    | None -> (per (float_of_int (cost1 - cost0)), per (gc1 -. gc0))
  in
  let deterministic = String.equal (s.fingerprint reference) (s.fingerprint r) in
  {
    row =
      {
        section = s.name;
        row_ops = o.ops;
        row_goodput_gbps = o.goodput_gbps;
        p50_ns = Stats.Histogram.percentile o.latencies 50.;
        p99_ns = Stats.Histogram.percentile o.latencies 99.;
        cpu_ns_per_op;
        gc_words_per_op;
      };
    checks =
      List.map
        (fun (check, ok) -> (s.name ^ "." ^ check, ok))
        (o.checks @ [ ("deterministic", deterministic) ]);
    report = o.report;
  }

let sweep_run (Scenario s) ~seed ~salt = s.fingerprint (s.run (s.reduced ~seed ~salt))

let sabotage_runs (Scenario s) =
  List.map
    (fun (flag, cfg) ->
      Sim.Optrace.set_capture (Some optrace_cap);
      Check.Invariant.set_sabotage flag true;
      let caught =
        match s.run cfg with
        | _ -> None
        | exception Check.Invariant.Violation msg -> Some msg
      in
      Check.Invariant.set_sabotage flag false;
      Sim.Optrace.clear ();
      (flag, caught))
    s.sabotage
