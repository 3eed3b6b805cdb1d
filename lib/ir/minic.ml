let compile source =
  let ast = Parser.parse source in
  let m = Lower.lower ast in
  Verify.check_exn m;
  m
