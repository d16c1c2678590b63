// Manifest fixture: this mini-repo carries no tools/*.txt, so under
// --require-manifests each of the five manifests is reported missing.
