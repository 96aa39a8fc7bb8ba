package q

import "netdiag/internal/lint/testdata/src/xtestload/p"

func New() *p.T { return &p.T{} }
