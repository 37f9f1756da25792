(* stream: the shape of Table 1.  One sender client and one receiver
   client on two hosts, joined by [conns] connections between the same
   two endpoints.  Closed loop: a fixed window of [outstanding] 64 KiB
   two-sided messages, sent round-robin over the conns still live.  A
   conn is retired after it fails an op, and the window is refilled on
   the live ones, so the offered load does not depend on how many conns
   survive.

   The per-packet path (Flow, Timely, Wire, Nic, Fabric, copies) does
   almost all the work here; the per-op and per-conn layers sit idle.

   The seed draws each message's size from 64 KiB +/- 1 KiB. *)

module H = Harness
module Time = Sim.Time
module Loop = Sim.Loop
module PE = Pony.Express

let conns = 8
let outstanding = 16
let mtu = 4096
let window_ops = 6000
let send_stat = H.span_stat "pony.send_message"
let connect_stat = H.span_stat "pony.connect"

let build ~seed () =
  let loop = Loop.create ~seed () in
  let fabric = Fabric.create ~loop ~config:Fabric.default_config ~hosts:2 in
  let directory = PE.Directory.create () in
  let mk addr =
    H.create_host ~loop ~fabric ~directory ~addr
      ~nic_config:{ Nic.default_config with Nic.mtu }
      ~mode:(Engine.Dedicating { cores = 1 })
      ()
  in
  let ha = mk 0 in
  let hb = mk 1 in
  let rng = Sim.Rng.create ~seed in
  let sink = ref None in
  let conn_arr = ref [||] in
  let live = Array.make conns true in
  let ready = ref false in
  let in_window = ref false in
  let closed = ref false in
  let stop = ref false in
  let sender_done = ref false in
  let pending : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let statuses = Hashtbl.create 8 in
  let attempted = ref 0 and failed = ref 0 and strays = ref 0 in
  let ok_bytes = ref 0 in
  let w_ok = ref 0 and w_failed = ref 0 and w_bits = ref 0.0 in
  let lat = H.samples () in
  ignore
    (Snap.Host.spawn_app hb ~name:"rx" (fun ctx ->
         let c = PE.create_client ctx hb.Snap.Host.pony ~name:"rx" () in
         sink := Some c;
         while true do
           ignore (PE.await_message ctx c)
         done));
  let resolve (c : PE.completion) =
    match Hashtbl.find_opt pending c.PE.comp_op with
    | None -> incr strays
    | Some (i, bytes) ->
        Hashtbl.remove pending c.PE.comp_op;
        H.count_status statuses c.PE.status;
        if c.PE.status = Pony.Wire.Ok then begin
          ok_bytes := !ok_bytes + bytes;
          if !in_window then begin
            H.add_sample lat (Time.sub c.PE.completed_at c.PE.issued_at);
            incr w_ok;
            w_bits := !w_bits +. float_of_int (8 * bytes);
            if !w_ok = window_ops then begin
              in_window := false;
              closed := true
            end
          end
        end
        else begin
          incr failed;
          live.(i) <- false;
          if !in_window then begin
            H.add_sample lat H.miss_ns;
            incr w_failed
          end
        end
  in
  ignore
    (Snap.Host.spawn_app ha ~name:"tx" (fun ctx ->
         let c = PE.create_client ctx ha.Snap.Host.pony ~name:"tx" () in
         Cpu.Thread.sleep ctx (Time.us 500);
         conn_arr :=
           Array.init conns (fun _ ->
               let sp = H.span_begin () in
               let conn = PE.connect_by_name ctx c ~dst_host:1 ~dst_name:"rx" in
               H.span_end connect_stat sp;
               conn);
         ready := true;
         in_window := true;
         let next = ref 0 in
         let rec pick tries =
           if tries = conns then None
           else begin
             let i = !next mod conns in
             incr next;
             if live.(i) then Some (i, (!conn_arr).(i)) else pick (tries + 1)
           end
         in
         let rec fill () =
           if (not !stop) && Hashtbl.length pending < outstanding then
             match pick 0 with
             | None -> ()
             | Some (i, conn) ->
                 let bytes = 65536 - 1024 + Sim.Rng.int rng 2049 in
                 let sp = H.span_begin () in
                 let op = PE.send_message ctx conn ~bytes () in
                 H.span_end send_stat sp;
                 incr attempted;
                 Hashtbl.replace pending op (i, bytes);
                 fill ()
         in
         fill ();
         while Hashtbl.length pending > 0 do
           resolve (PE.await_completion ctx c);
           fill ()
         done;
         sender_done := true));
  let sink_bytes () =
    match !sink with Some c -> PE.bytes_received c | None -> -1
  in
  let finish () =
    let conns_dead =
      Array.fold_left
        (fun a conn -> if PE.conn_state conn = PE.Dead then a + 1 else a)
        0 !conn_arr
    in
    {
      H.attempted = !attempted;
      failed = !failed;
      w_ok = !w_ok;
      w_failed = !w_failed;
      w_bits = !w_bits;
      lat = H.sorted lat;
      statuses = H.status_list statuses;
      checks =
        [
          ( "every_op_resolved_once",
            !strays = 0 && Hashtbl.length pending = 0
            && List.fold_left (fun a (_, n) -> a + n) 0 (H.status_list statuses)
               = !attempted );
          ("sink_bytes_equal_ok_bytes", sink_bytes () = !ok_bytes);
        ];
      conns_dead;
    }
  in
  {
    H.loop;
    hosts = [| ha; hb |];
    fabric;
    cap = Time.sec 2;
    ready = (fun () -> !ready);
    window_open = (fun () -> true);
    window_closed = (fun () -> !closed);
    drained = (fun () -> !sender_done && sink_bytes () = !ok_bytes);
    stop_issuing = (fun () -> stop := true);
    finish;
  }
