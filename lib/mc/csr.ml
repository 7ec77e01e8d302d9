type t = { row : int array; dst : int array }

let make ~row ~dst = { row; dst }

let n t = Array.length t.row - 1
let edges t = Array.length t.dst
let out_degree t v = t.row.(v + 1) - t.row.(v)

let iter_succ t v f =
  for k = t.row.(v) to t.row.(v + 1) - 1 do
    f t.dst.(k)
  done

let terminal t v = out_degree t v = 0

let terminal_count ?below t =
  let below = Option.value below ~default:(n t) in
  let count = ref 0 in
  for v = 0 to below - 1 do
    if t.row.(v + 1) = t.row.(v) then incr count
  done;
  !count

let of_lists lists =
  let n = Array.length lists in
  let row = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    row.(v + 1) <- row.(v) + List.length lists.(v)
  done;
  let dst = Array.make row.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri (fun i w -> dst.(row.(v) + i) <- w) lists.(v)
  done;
  { row; dst }

let restrict t ~keep =
  let nn = n t in
  let row = Array.make (nn + 1) 0 in
  for v = 0 to nn - 1 do
    let d = ref 0 in
    if keep v then
      for k = t.row.(v) to t.row.(v + 1) - 1 do
        if keep t.dst.(k) then incr d
      done;
    row.(v + 1) <- row.(v) + !d
  done;
  let dst = Array.make row.(nn) 0 in
  for v = 0 to nn - 1 do
    if keep v then begin
      let p = ref row.(v) in
      for k = t.row.(v) to t.row.(v + 1) - 1 do
        let w = t.dst.(k) in
        if keep w then begin
          dst.(!p) <- w;
          incr p
        end
      done
    end
  done;
  { row; dst }
