(* mesh: many clients, many connections, tiny ops.  [n] requester clients
   on host 0 each connect to every one of [n] sink clients on host 1,
   which puts n*n live connections on host 0.  Closed loop with one
   outstanding op per requester: small two-sided RPCs, round-robin over
   the requester's conns.

   The per-op API, completion queues, Memory.Arena conn state, Sim.Wheel
   timers and the OCaml major heap do the work; per-packet work is
   small.  It is the only workload with a substantial set-up (n*n
   connects), and it uses the same Pony layer as [stream] the opposite
   way: tiny latency-bound ops instead of bulk.

   The seed draws each op's size: 64 B, or 4 KiB one time in ten. *)

module H = Harness
module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

let n = 320
let ops_per_requester = 150
let warm_ops_per_requester = 20
let reply_bytes = 64
let send_stat = H.span_stat "pony.send_message"
let connect_stat = H.span_stat "pony.connect"

let build ~seed () =
  let loop = Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let directory = PE.Directory.create () in
  let mk addr =
    H.create_host ~loop ~fabric ~directory ~addr
      ~mode:(Engine.Dedicating { cores = 2 })
      ()
  in
  let h_cli = mk 0 in
  let h_srv = mk 1 in
  let window_ops = n * ops_per_requester in
  (* Every requester starts at once when the last conn is up; the window
     opens after that burst has drained, so its first-op queueing does
     not set the p99. *)
  let warm_ops = n * warm_ops_per_requester in
  let resolved = ref 0 in
  let sinks = Array.make n None in
  let requester_clients = Array.make n None in
  let conn_tab : PE.conn array array = Array.make n [||] in
  let ramp_done = ref 0 in
  let parked = ref [] in
  let ready = ref false in
  let closed = ref false in
  let stop = ref false in
  let requesters_done = ref 0 in
  let statuses = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 and strays = ref 0 in
  let ok_bytes = ref 0 in
  let w_ok = ref 0 and w_failed = ref 0 and w_bits = ref 0.0 in
  let lat = H.samples () in
  let replies = ref 0 and replies_resolved = ref 0 and replies_failed = ref 0 in
  let reply_ok_bytes = ref 0 in
  (* Sinks answer every request with a 64 B response and reap their own
     send completions; each reply is an op too. *)
  for i = 0 to n - 1 do
    ignore
      (Snap.Host.spawn_app h_srv
         ~name:(Printf.sprintf "sink%d" i)
         (fun ctx ->
           Cpu.Thread.sleep ctx (i * 200);
           let c =
             PE.create_client ctx h_srv.Snap.Host.pony
               ~name:(Printf.sprintf "s%d" i) ()
           in
           sinks.(i) <- Some c;
           while true do
             match PE.poll_message ctx c with
             | Some m ->
                 ignore (PE.send_message ctx m.PE.msg_conn ~bytes:reply_bytes ());
                 incr replies
             | None -> (
                 match PE.poll_completion ctx c with
                 | Some r ->
                     H.count_status statuses r.PE.status;
                     incr replies_resolved;
                     if r.PE.status = Pony.Wire.Ok then
                       reply_ok_bytes := !reply_ok_bytes + reply_bytes
                     else incr replies_failed
                 | None -> Cpu.Thread.wait ctx)
           done))
  done;
  let resolve ~bytes ~issued (st : Pony.Wire.status) ~answered_at =
    H.count_status statuses st;
    incr resolved;
    let in_window = !resolved > warm_ops && not !closed in
    if st = Pony.Wire.Ok then begin
      ok_bytes := !ok_bytes + bytes;
      if in_window then begin
        H.add_sample lat (Time.sub answered_at issued);
        incr w_ok;
        w_bits := !w_bits +. float_of_int (8 * (bytes + reply_bytes));
        if !w_ok = window_ops then closed := true
      end
    end
    else begin
      incr failed;
      if in_window then begin
        H.add_sample lat H.miss_ns;
        incr w_failed
      end
    end
  in
  let requester i ctx =
    (* Distinct start instants keep client ids and engine assignment a
       function of the inputs, not of same-time ties. *)
    Cpu.Thread.sleep ctx (Time.add (Time.ms 1) (i * 500));
    let client =
      PE.create_client ctx h_cli.Snap.Host.pony ~name:(Printf.sprintf "r%d" i) ()
    in
    let rng = Sim.Rng.create ~seed:((seed * 1_000_003) + i) in
    let conns =
      Array.init n (fun j ->
          let sp = H.span_begin () in
          let c = PE.connect ctx client ~dst_host:1 ~dst_client:((i + j) mod n) in
          H.span_end connect_stat sp;
          c)
    in
    conn_tab.(i) <- conns;
    requester_clients.(i) <- Some client;
    incr ramp_done;
    if !ramp_done = n then begin
      ready := true;
      List.iter Cpu.Sched.wake !parked
    end
    else begin
      parked := Cpu.Thread.task ctx :: !parked;
      while not !ready do
        Cpu.Thread.wait ctx
      done
    end;
    let k = ref 0 in
    while not !stop do
      let bytes = if Sim.Rng.int rng 10 = 0 then 4096 else 64 in
      let issued = Cpu.Thread.now ctx in
      let sp = H.span_begin () in
      let op = PE.send_message ctx conns.(!k mod n) ~bytes () in
      H.span_end send_stat sp;
      incr attempted;
      incr k;
      (* The RPC resolves once its send completed and, if that was Ok,
         the response arrived. *)
      let sent = ref None and answered_at = ref (-1) in
      while
        match !sent with
        | None -> true
        | Some st -> st = Pony.Wire.Ok && !answered_at < 0
      do
        match PE.poll_completion ctx client with
        | Some c when c.PE.comp_op = op -> sent := Some c.PE.status
        | Some _ -> incr strays
        | None -> (
            match PE.poll_message ctx client with
            | Some _ when !answered_at < 0 -> answered_at := Cpu.Thread.now ctx
            | Some _ -> incr strays
            | None -> Cpu.Thread.wait ctx)
      done;
      resolve ~bytes ~issued (Option.get !sent) ~answered_at:!answered_at
    done;
    incr requesters_done
  in
  for i = 0 to n - 1 do
    ignore
      (Snap.Host.spawn_app h_cli ~name:(Printf.sprintf "req%d" i) (requester i))
  done;
  let received clients =
    Array.fold_left
      (fun a -> function Some c -> a + PE.bytes_received c | None -> a)
      0 clients
  in
  let finish () =
    let conns_dead =
      Array.fold_left
        (Array.fold_left (fun a c -> if PE.conn_state c = PE.Dead then a + 1 else a))
        0 conn_tab
    in
    let statuses = H.status_list statuses in
    {
      H.attempted = !attempted + !replies;
      failed = !failed + !replies_failed;
      w_ok = !w_ok;
      w_failed = !w_failed;
      w_bits = !w_bits;
      lat = H.sorted lat;
      statuses;
      checks =
        [
          ( "every_op_resolved_once",
            !strays = 0 && !requesters_done = n && !replies_resolved = !replies
            && List.fold_left (fun a (_, k) -> a + k) 0 statuses
               = !attempted + !replies );
          ( "sink_bytes_equal_ok_bytes",
            received sinks = !ok_bytes
            && received requester_clients = !reply_ok_bytes );
        ];
      conns_dead;
    }
  in
  {
    H.loop;
    hosts = [| h_cli; h_srv |];
    fabric;
    cap = Time.sec 10;
    ready = (fun () -> !ready);
    window_open = (fun () -> !resolved >= warm_ops);
    window_closed = (fun () -> !closed);
    drained = (fun () -> !requesters_done = n && !replies_resolved = !replies);
    stop_issuing = (fun () -> stop := true);
    finish;
  }
