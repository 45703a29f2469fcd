type t = {
  mutable accesses : int;
  mutable reads : int;
  mutable writes : int;
  mutable sync_ops : int;
  mutable hits : int;
  mutable misses : int;
  mutable cold_misses : int;
  mutable coherence_misses : int;
  mutable replacement_misses : int;
  mutable invalidations : int;
  mutable upgrades : int;
  mutable writebacks : int;
  mutable local_fills : int;
  mutable remote_fills : int;
  mutable network_messages : int;
  mutable network_hops : int;
  unique_per_proc : int array;
}

let create ~nprocs =
  {
    accesses = 0;
    reads = 0;
    writes = 0;
    sync_ops = 0;
    hits = 0;
    misses = 0;
    cold_misses = 0;
    coherence_misses = 0;
    replacement_misses = 0;
    invalidations = 0;
    upgrades = 0;
    writebacks = 0;
    local_fills = 0;
    remote_fills = 0;
    network_messages = 0;
    network_hops = 0;
    unique_per_proc = Array.make nprocs 0;
  }

let touched t = Array.copy t.unique_per_proc

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses

let pp ppf t =
  Format.fprintf ppf
    "@[<v>accesses: %d (r %d / w %d / sync %d)@,hits: %d  misses: %d \
     (%.2f%%)@,  cold %d, coherence %d, replacement %d@,invalidations: \
     %d  upgrades: %d  writebacks: %d@,fills: local %d, remote %d@,network: \
     %d msgs, %d hops@]"
    t.accesses t.reads t.writes t.sync_ops t.hits t.misses
    (100.0 *. miss_rate t)
    t.cold_misses t.coherence_misses t.replacement_misses t.invalidations
    t.upgrades t.writebacks t.local_fills t.remote_fills t.network_messages
    t.network_hops
