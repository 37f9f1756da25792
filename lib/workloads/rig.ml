type t = { loop : Sim.Loop.t; fabric : Fabric.t; hosts : Snap.Host.t array }

let create ~seed ~tie_salt ~mode ?poll_period ?keepalive ?op_pool_bytes n =
  (* Fresh invariant scope before any layer registers predicates; both
     calls are no-ops unless checking was enabled (bench --check). *)
  Check.Invariant.begin_run ();
  let loop = Sim.Loop.create ~seed ~tie_salt () in
  Check.Invariant.install ~loop ();
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:n in
  let directory = Pony.Express.Directory.create () in
  let hosts =
    Array.init n (fun addr ->
        Snap.Host.create ~loop ~fabric ~directory ~addr ~mode ?poll_period
          ?keepalive
          ?op_pool_bytes:(Option.map (fun f -> f addr) op_pool_bytes)
          ())
  in
  { loop; fabric; hosts }

let finish t =
  Check.Invariant.quiesce ();
  let pool h = Pony.Express.op_pool h.Snap.Host.pony in
  let leaked =
    Array.fold_left (fun acc h -> acc + Memory.Pool.in_use (pool h)) 0 t.hosts
  in
  (* Every op completed, failed or was shed with its charge released —
     including ops of crashed or upgraded engine incarnations — so a
     live byte is a leak and [assert_quiesced] names its owner. *)
  Array.iter (fun h -> Memory.Pool.assert_quiesced (pool h)) t.hosts;
  leaked

let strip_pkt_ids detail =
  String.split_on_char ' ' detail
  |> List.filter (fun tok -> not (String.length tok > 4 && String.sub tok 0 4 = "pkt#"))
  |> String.concat " "

let fault_log_lines buf log =
  List.iter
    (fun (e : Fault.Log.entry) ->
      Printf.bprintf buf "%d %s %s\n" e.Fault.Log.at e.Fault.Log.kind
        (strip_pkt_ids e.Fault.Log.detail))
    (Fault.Log.entries log)

let counter_digest counters =
  let buf = Buffer.create 512 in
  List.iter (fun (name, v) -> Printf.bprintf buf "%s=%d\n" name v) counters;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let engine_batch_cost_ns () =
  List.fold_left
    (fun acc m ->
      match m.Stats.Registry.m_kind with
      | Stats.Registry.Histogram h
        when String.equal m.Stats.Registry.m_name "engine_batch_cost_ns" ->
          acc + Stats.Histogram.sum h
      | _ -> acc)
    0 (Stats.Registry.snapshot ())
