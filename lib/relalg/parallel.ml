let ranges n len =
  if len = 0 || n <= 1 then [ (0, len) ]
  else begin
    let n = min n len in
    let base = len / n and extra = len mod n in
    let rec go i start acc =
      if i >= n then List.rev acc
      else begin
        let size = base + if i < extra then 1 else 0 in
        go (i + 1) (start + size) ((start, start + size) :: acc)
      end
    in
    go 0 0 []
  end

let split n arr =
  match ranges n (Array.length arr) with
  | [ _ ] -> [ arr ]
  | rs -> List.map (fun (lo, hi) -> Array.sub arr lo (hi - lo)) rs

let run_all = function
  | [ only ] -> [ only () ]
  | jobs -> List.map Domain.join (List.map Domain.spawn jobs)

let run_chunks ~workers rows f = run_all (List.map (fun chunk () -> f chunk) (split workers rows))

let run_ranges ~workers len f =
  run_all (List.map (fun (lo, hi) () -> f lo hi) (ranges workers len))
