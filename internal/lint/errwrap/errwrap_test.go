package errwrap_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestErrwrap(t *testing.T) { analysistest.Run(t, "errwrap", "errwrap") }
