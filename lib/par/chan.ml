exception Poisoned of exn

type 'a t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : 'a Queue.t;
  mutable poison : exn option;
}

let create () =
  { lock = Mutex.create ();
    nonempty = Condition.create ();
    queue = Queue.create ();
    poison = None }

let check_poison t =
  match t.poison with None -> () | Some e -> raise (Poisoned e)

let push t v =
  Mutex.protect t.lock (fun () ->
      check_poison t;
      Queue.push v t.queue;
      Condition.signal t.nonempty)

let pop t =
  Mutex.protect t.lock (fun () ->
      check_poison t;
      while Queue.is_empty t.queue do
        Condition.wait t.nonempty t.lock;
        check_poison t
      done;
      Queue.pop t.queue)

let try_pop t =
  Mutex.protect t.lock (fun () ->
      check_poison t;
      Queue.take_opt t.queue)

let poison t e =
  Mutex.protect t.lock (fun () ->
      if t.poison = None then t.poison <- Some e;
      Condition.broadcast t.nonempty)
