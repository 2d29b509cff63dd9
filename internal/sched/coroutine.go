//go:build go1.23

package sched

import "iter"

// coroutine starts body parked before its first statement. resume runs it
// until it calls park or returns; stop ends it early, and a pending park
// then returns false.
func coroutine(body func(park func(struct{}) bool)) (resume func() (struct{}, bool), stop func()) {
	return iter.Pull(iter.Seq[struct{}](body))
}
