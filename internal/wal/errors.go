package wal

import "errors"

// ErrPoisoned marks a store that has died: a simulated crash, a
// permanent device fault, or log/tree divergence left it unable to
// guarantee that its in-memory state and its durable log agree, so it
// refuses all further service. Every poisoning error wraps this
// sentinel (errors.Is matches) together with the original cause, so
// callers can both branch on "the store is dead" and inspect why —
// errors.As still finds a wrapped *fault.CrashError, retry.IsTransient
// still sees a fault's kind. A poisoned store is not necessarily
// lost: Store.Recover rebuilds one in place from its durable image.
var ErrPoisoned = errors.New("wal: store poisoned")
