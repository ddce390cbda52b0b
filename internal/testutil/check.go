package testutil

import "flag"

// Checked reports whether tests should run simulations under
// config.Config.Check: always, except under -bench, which would time
// the checks. Call it from a test, after the testing flags are parsed.
func Checked() bool { return flag.Lookup("test.bench").Value.String() == "" }
