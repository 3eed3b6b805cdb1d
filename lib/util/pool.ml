(* The process's pool domains.  A call posts a [job] with one ticket per
   helper it wants; a parked domain takes a ticket of the oldest job
   that has one left and runs [work] with the ticket's index.  The
   caller runs index 0 itself, then withdraws the tickets nobody took
   and waits only for the helpers that started, so no call ever waits
   for a domain that is busy elsewhere. *)

type job = {
  work : int -> unit;
  mutable tickets : int;          (* helpers still wanted *)
  mutable taken : int;            (* helpers that started *)
  mutable running : int;          (* helpers not yet returned *)
  mutable failure : exn option;   (* the first helper exception *)
}

let lock = Mutex.create ()
let posted = Condition.create ()    (* a job with tickets was queued *)
let returned = Condition.create ()  (* a helper returned from its job *)
let jobs : job Queue.t = Queue.create ()
let size = ref 0                    (* domains spawned, guarded by [lock] *)

let spawned () = Mutex.protect lock (fun () -> !size)

(* Under [lock]: the next ticket, dropping jobs that have none left. *)
let rec next_ticket () =
  match Queue.peek_opt jobs with
  | Some j when j.tickets = 0 ->
    ignore (Queue.pop jobs);
    next_ticket ()
  | Some j ->
    j.tickets <- j.tickets - 1;
    j.taken <- j.taken + 1;
    j.running <- j.running + 1;
    (j, j.taken)
  | None ->
    Condition.wait posted lock;
    next_ticket ()

let park () =
  Mutex.lock lock;
  while true do
    let j, w = next_ticket () in
    Mutex.unlock lock;
    let failure = match j.work w with () -> None | exception e -> Some e in
    Mutex.lock lock;
    if Option.is_none j.failure then j.failure <- failure;
    j.running <- j.running - 1;
    if j.running = 0 then Condition.broadcast returned
  done

let run ~domains work =
  if domains < 1 then invalid_arg "Pool.run: domains must be >= 1";
  if domains = 1 then work 0
  else begin
    let j =
      { work; tickets = domains - 1; taken = 0; running = 0; failure = None }
    in
    let grow =
      Mutex.protect lock (fun () ->
          Queue.push j jobs;
          Condition.broadcast posted;
          let grow = max 0 (domains - 1 - !size) in
          size := !size + grow;
          grow)
    in
    (* A domain that cannot be spawned only costs parallelism: the
       caller works through the job alone if need be. *)
    for _ = 1 to grow do
      match Domain.spawn park with
      | _ -> ()
      | exception Failure _ -> Mutex.protect lock (fun () -> decr size)
    done;
    let own = match work 0 with () -> None | exception e -> Some e in
    let helper =
      Mutex.protect lock (fun () ->
          j.tickets <- 0;
          while j.running > 0 do
            Condition.wait returned lock
          done;
          j.failure)
    in
    match own, helper with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ()
  end

let map ~domains f xs =
  if domains < 1 then invalid_arg "Pool.map: domains must be >= 1";
  let n = Array.length xs in
  let out = Array.make n None in
  let next = Atomic.make 0 in
  let rec work _ =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then
      match f xs.(i) with
      | v ->
        out.(i) <- Some (Ok v);
        work 0
      | exception e -> out.(i) <- Some (Error e)
  in
  run ~domains:(max 1 (min domains n)) work;
  (* Indices are claimed in order and a claimed one always finishes.
     Slots stay unclaimed only when every domain that ran stopped at a
     failure, so this scan meets the lowest failure before any
     unclaimed slot. *)
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error e) -> raise e
      | None -> assert false)
    out
