package panicpolicy_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestPanicPolicy(t *testing.T) { analysistest.Run(t, "panicpolicy", "panicpolicy") }
