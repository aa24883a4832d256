package dmfserver

import (
	"net/http"

	"perfknow/internal/dmfwire"
)

// Resource-style v1 routes: the Application → Experiment → Trial hierarchy
// addressed by path instead of query parameters:
//
//	GET    /api/v1/apps
//	GET    /api/v1/apps/{app}/experiments
//	GET    /api/v1/apps/{app}/experiments/{exp}/trials
//	GET    /api/v1/apps/{app}/experiments/{exp}/trials/{trial}
//	DELETE /api/v1/apps/{app}/experiments/{exp}/trials/{trial}
//
// Path segments are percent-escaped by clients and decoded by the router,
// so names containing '/' round-trip. The listings also answer on the older
// query-param routes (/api/v1/applications|experiments|trials), with
// byte-identical bodies.

func (s *Server) handleResourceExperiments(w http.ResponseWriter, r *http.Request) {
	app := r.PathValue("app")
	writeJSON(w, http.StatusOK, map[string][]string{"experiments": s.repo.Experiments(app)})
}

func (s *Server) handleResourceTrialList(w http.ResponseWriter, r *http.Request) {
	app, exp := r.PathValue("app"), r.PathValue("exp")
	writeJSON(w, http.StatusOK, map[string][]string{"trials": s.repo.Trials(app, exp)})
}

// handleResourceTrialGet answers a get whose Accept names
// dmfwire.TrialContentType with the stored bytes as they are; any other
// get with trial JSON.
func (s *Server) handleResourceTrialGet(w http.ResponseWriter, r *http.Request) {
	app, exp, name := r.PathValue("app"), r.PathValue("exp"), r.PathValue("trial")
	if acceptsEncodedTrial(r) {
		data, err := s.repo.GetEncoded(r.Context(), app, exp, name)
		if err != nil {
			writeServiceError(w, err)
			return
		}
		w.Header().Set("Content-Type", dmfwire.TrialContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(data)
		return
	}
	t, err := s.repo.GetTrialContext(r.Context(), app, exp, name)
	if err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t)
}

func (s *Server) handleResourceTrialDelete(w http.ResponseWriter, r *http.Request) {
	app, exp, name := r.PathValue("app"), r.PathValue("exp"), r.PathValue("trial")
	if err := s.repo.DeleteContext(r.Context(), app, exp, name); err != nil {
		writeServiceError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "deleted"})
}
