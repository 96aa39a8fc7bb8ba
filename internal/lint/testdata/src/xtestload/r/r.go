package r

import (
	"netdiag/internal/lint/testdata/src/xtestload/p"
	"netdiag/internal/lint/testdata/src/xtestload/q"
)

func F() { p.Use(q.New()) }
