type ('k, 'v) t = { keys : 'k array; vals : 'v array; mask : int }

let create size ~absent v =
  if size <= 0 || size land (size - 1) <> 0 then
    invalid_arg "Ident_cache.create: size must be a power of two";
  { keys = Array.make size absent; vals = Array.make size v; mask = size - 1 }

let find c ~slot key ctx miss =
  let i = slot land c.mask in
  if Array.unsafe_get c.keys i == key then Array.unsafe_get c.vals i
  else begin
    let v = miss ctx key in
    Array.unsafe_set c.keys i key;
    Array.unsafe_set c.vals i v;
    v
  end

let string_slot s =
  let n = String.length s in
  if n = 0 then 0
  else
    (n * 8)
    + Char.code (String.unsafe_get s 0)
    + (Char.code (String.unsafe_get s (n / 2)) * 5)
    + (Char.code (String.unsafe_get s (n - 1)) * 17)
