package main

import (
	"bytes"
	"testing"

	"netdiag/internal/lint"
)

// TestWriteJSONEmptyFindings pins the -json shape of a clean run:
// findings is [], never null.
func TestWriteJSONEmptyFindings(t *testing.T) {
	var buf bytes.Buffer
	if err := writeJSON(&buf, lint.All(), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"findings": []`)) {
		t.Fatalf("empty report should render findings as []:\n%s", buf.String())
	}
}
