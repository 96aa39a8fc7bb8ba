package p

type T struct{}

func Use(*T) {}
