package detrand_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestDetrand(t *testing.T) { analysistest.Run(t, "detrand", "detrand") }
