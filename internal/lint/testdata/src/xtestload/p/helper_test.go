package p

// Helper exists only in the test-augmented p.
func Helper() *T { return &T{} }
