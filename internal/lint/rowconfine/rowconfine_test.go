package rowconfine_test

import (
	"testing"

	"spatialanon/internal/lint/analysistest"
)

func TestRowConfine(t *testing.T) { analysistest.Run(t, "rowconfine", "rowconfine") }
