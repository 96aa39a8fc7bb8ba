package p_test

import (
	"netdiag/internal/lint/testdata/src/xtestload/d"
	"netdiag/internal/lint/testdata/src/xtestload/p"
	"netdiag/internal/lint/testdata/src/xtestload/q"
)

func use() {
	p.Use(d.New())
	p.Use(q.New())
	p.Use(p.Helper())
}
