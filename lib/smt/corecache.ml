let clear () = ()
