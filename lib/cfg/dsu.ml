(* Union-find (disjoint-set union) over a fixed integer universe, with
   path compression. Small utility shared by web renaming and non-switch
   region construction. *)

type t = int array

let create n = Array.init n (fun i -> i)

let rec find t x =
  if t.(x) = x then x
  else begin
    t.(x) <- find t t.(x);
    t.(x)
  end

let union t x y =
  let rx = find t x and ry = find t y in
  if rx <> ry then t.(ry) <- rx

