(* rack: the shape of Figures 6(b)/(c).  [hosts] hosts with [jobs] jobs
   each, all-to-all: every job connects to every job on the other hosts
   and sends 1000 B requests for 1 MiB responses.  Open loop: Poisson
   arrivals at [offered_gbps] per host (rx + tx).  Engines schedule by
   compacting.  A tiny-RPC prober on each host supplies the latency
   percentiles, each probe timed from the moment it was due.

   Cpu.Sched and Engine compacting (wakeups, scale-up and scale-down)
   and Fabric incast queues do the work; connection state is trivial.

   The seed draws the arrivals.  A Poisson process conditioned on its
   count places that many arrivals uniformly at random, so each phase
   (warm-up, window) gets exactly rate x length arrivals at uniform
   random instants from uniformly random jobs: the offered load is
   exact, and seeds differ only in where the bursts fall. *)

module H = Harness
module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

let hosts = 8
let jobs = 10
let offered_gbps = 48.0
let request_bytes = 1000
let response_bytes = 1 lsl 20
let probe_bytes = 1000
let connect_at = Time.ms 1
let warm = Time.ms 1
let window = Time.ms 4

(* Probes per prober per millisecond: 8 probers give 2,432 samples per
   window, 14,592 over a run's six input sets, so 145 lie beyond the
   p99.  Probes are cheap next to the 1 MiB responses. *)
let probes_per_ms = 76
let mode = Engine.Compacting { slo = Time.us 25; max_threads = 10 }
let send_stat = H.span_stat "pony.send_message"
let connect_stat = H.span_stat "pony.connect"

(* Stream ids: bit 0 marks a response, bit 1 a probe. *)
let is_response s = s land 1 = 1
let is_probe s = s land 2 = 2

(* [count] instants uniform in [from, from + len), sorted. *)
let uniform_times rng ~count ~from ~len =
  let a = Array.init count (fun _ -> Time.add from (Sim.Rng.int rng len)) in
  Array.sort compare a;
  a

type pending_rpc = { due : Time.t; bits : int; probe : bool }

let build ~seed () =
  let loop = Loop.create ~seed () in
  let fabric =
    Fabric.create ~loop
      ~config:{ Fabric.default_config with Fabric.link_gbps = 50.0 }
      ~hosts
  in
  let directory = PE.Directory.create () in
  let nic_config = { Nic.default_config with Nic.num_rx_queues = jobs + 3 } in
  let hs =
    Array.init hosts (fun addr ->
        H.create_host ~loop ~fabric ~directory ~addr ~cores:16 ~nic_config ~mode
          ~engines:1 ())
  in
  let rng = Sim.Rng.create ~seed in
  (* Arrivals: exact counts per phase, instants and jobs at random. *)
  (* Each job dials its 70 peers one after another, about 2.2 ms. *)
  let traffic_at = Time.add connect_at (Time.ms 3) in
  let open_at = Time.add traffic_at warm in
  let close_at = Time.add open_at window in
  let rpc_bits = 8 * (request_bytes + response_bytes) in
  let rpcs_per_ns =
    float_of_int hosts *. offered_gbps /. (2.0 *. float_of_int rpc_bits)
  in
  let due = Array.make (hosts * (jobs + 1)) [] in
  let add_phase ~from ~len =
    let n = int_of_float (Float.round (rpcs_per_ns *. float_of_int len)) in
    Array.iter
      (fun t ->
        let j = Sim.Rng.int rng (hosts * jobs) in
        let k = (j / jobs * (jobs + 1)) + (j mod jobs) in
        due.(k) <- t :: due.(k))
      (uniform_times rng ~count:n ~from ~len);
    for h = 0 to hosts - 1 do
      let k = (h * (jobs + 1)) + jobs in
      let count = probes_per_ms * len / Time.ms 1 in
      Array.iter (fun t -> due.(k) <- t :: due.(k)) (uniform_times rng ~count ~from ~len)
    done
  in
  add_phase ~from:traffic_at ~len:warm;
  add_phase ~from:open_at ~len:window;
  let due = Array.map (fun l -> Array.of_list (List.rev l)) due in
  let clients = Array.make (hosts * (jobs + 1)) None in
  let connected = ref 0 in
  let all_conns = ref [] in
  let ready_at = ref max_int in
  let statuses = Hashtbl.create 8 in
  let sends = ref 0 and sends_resolved = ref 0 and sends_failed = ref 0 in
  let ok_send_bytes = ref 0 in
  let rpcs = ref 0 and rpcs_done = ref 0 and strays = ref 0 in
  let w_ok = ref 0 and w_failed = ref 0 and w_bits = ref 0.0 in
  let lat = H.samples () in
  let in_window t = t >= open_at && t < close_at in
  let spawn_job hi ji =
    let host = hs.(hi) in
    let k = (hi * (jobs + 1)) + ji in
    let probe = ji = jobs in
    let name = if probe then Printf.sprintf "prober@%d" hi else Printf.sprintf "job%d@%d" ji hi in
    let job_rng = Sim.Rng.create ~seed:((seed * 7919) + k) in
    ignore
      (Snap.Host.spawn_app host ~name (fun ctx ->
           let client = PE.create_client ctx host.Snap.Host.pony ~name ~exclusive_engine:true () in
           clients.(k) <- Some client;
           Cpu.Thread.sleep ctx (Time.sub connect_at (Cpu.Thread.now ctx));
           let conns =
             Array.of_list
               (List.concat
                  (List.init hosts (fun h ->
                       if h = hi then []
                       else
                         List.init jobs (fun j ->
                             let sp = H.span_begin () in
                             let c = PE.connect ctx client ~dst_host:h ~dst_client:j in
                             H.span_end connect_stat sp;
                             c))))
           in
           all_conns := conns :: !all_conns;
           incr connected;
           if !connected = hosts * (jobs + 1) then ready_at := Cpu.Thread.now ctx;
           let send conn ~stream ~bytes =
             let sp = H.span_begin () in
             let op = PE.send_message ctx conn ~stream ~bytes () in
             H.span_end send_stat sp;
             incr sends;
             op
           in
           (* op id -> payload bytes, and the stream of the RPC a request
              send belongs to *)
           let send_ops : (int, int * int option) Hashtbl.t = Hashtbl.create 64 in
           let outstanding : (int, pending_rpc) Hashtbl.t = Hashtbl.create 64 in
           let arrivals = due.(k) in
           let next = ref 0 in
           let next_stream = ref (if probe then 2 else 0) in
           let task = Cpu.Thread.task ctx in
           while true do
             let progressed = ref true in
             (match PE.poll_message ctx client with
             | Some m when is_response m.PE.stream -> (
                 match Hashtbl.find_opt outstanding (m.PE.stream - 1) with
                 | Some r ->
                     Hashtbl.remove outstanding (m.PE.stream - 1);
                     incr rpcs_done;
                     let now = Cpu.Thread.now ctx in
                     if in_window now then incr w_ok;
                     if in_window r.due then begin
                       w_bits := !w_bits +. float_of_int r.bits;
                       if r.probe then H.add_sample lat (Time.sub now r.due)
                     end
                 | None -> incr strays)
             | Some m ->
                 let bytes = if is_probe m.PE.stream then probe_bytes else response_bytes in
                 let op = send m.PE.msg_conn ~stream:(m.PE.stream + 1) ~bytes in
                 Hashtbl.replace send_ops op (bytes, None)
             | None -> (
                 match PE.poll_completion ctx client with
                 | Some c -> (
                     match Hashtbl.find_opt send_ops c.PE.comp_op with
                     | Some (bytes, request) -> (
                         Hashtbl.remove send_ops c.PE.comp_op;
                         incr sends_resolved;
                         H.count_status statuses c.PE.status;
                         if c.PE.status = Pony.Wire.Ok then
                           ok_send_bytes := !ok_send_bytes + bytes
                         else incr sends_failed;
                         (* A failed request resolves its RPC: no response
                            will come.  A failed response strands the
                            requester, and the run ends at the cap. *)
                         match request with
                         | Some stream when c.PE.status <> Pony.Wire.Ok ->
                             let r = Hashtbl.find outstanding stream in
                             Hashtbl.remove outstanding stream;
                             incr rpcs_done;
                             if in_window r.due then begin
                               incr w_failed;
                               if r.probe then H.add_sample lat H.miss_ns
                             end
                         | _ -> ())
                     | None -> incr strays)
                 | None ->
                     let now = Cpu.Thread.now ctx in
                     if !next < Array.length arrivals && arrivals.(!next) <= now
                     then begin
                       let t_due = arrivals.(!next) in
                       incr next;
                       let conn = conns.(Sim.Rng.int job_rng (Array.length conns)) in
                       let stream = !next_stream in
                       next_stream := stream + 4;
                       let req = if probe then probe_bytes else request_bytes in
                       let resp = if probe then probe_bytes else response_bytes in
                       Hashtbl.replace outstanding stream
                         { due = t_due; bits = 8 * (req + resp); probe };
                       incr rpcs;
                       Hashtbl.replace send_ops (send conn ~stream ~bytes:req) (req, Some stream)
                     end
                     else progressed := false));
             if not !progressed then begin
               if !next < Array.length arrivals then begin
                 let h = Loop.at loop arrivals.(!next) (fun () -> Cpu.Sched.kick task) in
                 Cpu.Thread.wait ctx;
                 Loop.cancel h
               end
               else Cpu.Thread.wait ctx
             end
           done))
  in
  for h = 0 to hosts - 1 do
    for j = 0 to jobs do
      spawn_job h j
    done
  done;
  let received () =
    Array.fold_left (fun a -> function Some c -> a + PE.bytes_received c | None -> a) 0 clients
  in
  let window_opened = ref false and window_closed = ref false in
  ignore (Loop.at loop open_at (fun () -> window_opened := true));
  ignore (Loop.at loop close_at (fun () -> window_closed := true));
  let finish () =
    let statuses = H.status_list statuses in
    {
      H.attempted = !sends;
      failed = !sends_failed;
      w_ok = !w_ok;
      w_failed = !w_failed;
      w_bits = !w_bits;
      lat = H.sorted lat;
      statuses;
      checks =
        [
          ( "every_op_resolved_once",
            !strays = 0 && !rpcs_done = !rpcs && !sends_resolved = !sends
            && List.fold_left (fun a (_, n) -> a + n) 0 statuses = !sends );
          ("sink_bytes_equal_ok_bytes", received () = !ok_send_bytes);
          ("connected_before_traffic", !ready_at <= traffic_at);
        ];
      conns_dead =
        List.fold_left
          (Array.fold_left (fun a c -> if PE.conn_state c = PE.Dead then a + 1 else a))
          0 !all_conns;
    }
  in
  {
    H.loop;
    hosts = hs;
    fabric;
    cap = Time.add close_at (Time.ms 50);
    ready = (fun () -> !connected = hosts * (jobs + 1));
    window_open = (fun () -> !window_opened);
    window_closed = (fun () -> !window_closed);
    drained = (fun () -> !rpcs_done = !rpcs && !sends_resolved = !sends);
    (* Open loop: every arrival is due before the window closes, and
       each is sent however late the generator runs. *)
    stop_issuing = ignore;
    finish;
  }
