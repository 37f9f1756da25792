(* The robustness scenario table: every entry, at its reduced size, must
   pass its own checks, fingerprint deterministically, and produce a row
   that depends on that scenario alone. *)

module S = Workloads.Scenario

let check_bool = Alcotest.(check bool)

(* Everything in a result the simulation decides: the row's modeled
   columns, every check and every report line (some of which read the
   metric registry back).  Minor-GC words are a property of the
   compiled program, not of the scenario, and are left out. *)
let modeled (r : S.result) =
  let row = r.S.row in
  ( (row.S.section, row.S.row_ops, row.S.row_goodput_gbps, row.S.p50_ns, row.S.p99_ns),
    row.S.cpu_ns_per_op,
    r.S.checks,
    r.S.report )

let test_names_unique () =
  let names = List.map S.name S.all in
  Alcotest.(check int)
    "no duplicate names"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_checks_pass sc () =
  let r = S.execute ~reduced:true sc in
  check_bool "has checks" true (r.S.checks <> []);
  List.iter (fun (name, ok) -> check_bool name true ok) r.S.checks

let test_sweep_run_deterministic sc () =
  let a = S.sweep_run sc ~seed:2 ~salt:0 in
  let b = S.sweep_run sc ~seed:2 ~salt:7 in
  Alcotest.(check string) "fingerprint is a function of the seed" a b

let find name = List.find (fun sc -> String.equal (S.name sc) name) S.all

(* Partition's checks and report read per-host connection counters back
   from the registry, and chaos populates the same metric names: run
   after chaos (or after itself), partition must report exactly what it
   reports on its own. *)
let test_registry_isolation () =
  let a = find "chaos" and b = find "partition" in
  let alone = modeled (S.execute ~reduced:true b) in
  ignore (S.execute ~reduced:true a);
  check_bool "B after A = B alone" true (alone = modeled (S.execute ~reduced:true b));
  check_bool "B after B = B alone" true (alone = modeled (S.execute ~reduced:true b))

let () =
  (* The invariant checker runs under every scenario, as in the sweep. *)
  Check.Invariant.set_enabled true;
  Alcotest.run "scenario"
    [
      ( "table",
        [
          Alcotest.test_case "names unique" `Quick test_names_unique;
          Alcotest.test_case "registry isolation" `Quick test_registry_isolation;
        ] );
      ( "checks",
        List.map
          (fun sc -> Alcotest.test_case (S.name sc) `Quick (test_checks_pass sc))
          S.all );
      ( "fingerprint",
        List.map
          (fun sc ->
            Alcotest.test_case (S.name sc) `Quick (test_sweep_run_deterministic sc))
          S.all );
    ]
